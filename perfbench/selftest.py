"""Fast self-test of the benchmark (about a minute, on the ``tiny`` preset).

    python3 perfbench/selftest.py

Checks, in order:

1. ``BENCHMARK.json`` keeps to its schema and names exactly the metrics
   ``run.py`` prints;
2. the tracer restores every name it wraps and computes self times;
3. a run outside a checkout (no ``src/``) exits non-zero without a result;
4. an untraced and a traced run of the ``selftest`` workload print a
   correct result with every metric, and the traced run wrapped every layer
   it reports and removed the wrappers afterwards;
5. no speedometer process outlives its run.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_schema() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }, sorted(spec)
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200, w
        names.append(w["name"])
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25, m
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower"), m
        names.append(m["name"])
    assert all(NAME.match(n) for n in names), names
    assert len(names) == len(set(names)), "names must be unique"
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import layers
    from workloads import WORKLOADS

    for w in spec["workloads"]:
        assert WORKLOADS[w["name"]].why == w["why"], w["name"]
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    assert per_layer.keys() == layers.UNITS.keys()
    for name, m in per_layer.items():
        assert m["unit"] == layers.UNITS[name], name
        assert (m["better"] == "higher") == (name in layers.HIGHER), name
    return spec


def check_tracer() -> None:
    from tracer import Tracer

    mod = types.ModuleType("perfbench_fake")
    mod.outer = lambda: mod.inner() + 1
    mod.inner = lambda: 1
    sys.modules[mod.__name__] = mod
    originals = (mod.outer, mod.inner)
    tr = Tracer()
    tr.patch(mod.__name__, "outer", "outer")
    tr.patch(mod.__name__, "inner", "inner", lambda a, k, r: {"value": r})
    assert mod.outer is not originals[0] and mod.outer() == 2
    assert tr.still_patched() == ["perfbench_fake.inner", "perfbench_fake.outer"]
    tr.restore()
    assert (mod.outer, mod.inner) == originals and not tr.still_patched()
    outer, inner = tr.spans
    assert inner.parent == 0 and inner.counts == {"value": 1}
    assert abs(outer.self_s + inner.dur - outer.dur) < 1e-12
    del sys.modules[mod.__name__]


def run_bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "selftest",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_without_src() -> None:
    bare = ROOT / ".perfbench_out" / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run_bench(bare, 0)
        assert proc.returncode != 0, proc.stdout
        assert '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)


def check_run(spec: dict, trace: int) -> dict:
    proc = run_bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr[-3000:]
    assert result["attempted"] >= (2 if trace else 1)
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    assert list(got) == [m["name"] for m in wanted], list(got)
    for m in wanted:
        assert got[m["name"]]["unit"] == m["unit"], m
    if not trace:
        assert all(v["value"] > 0 for v in got.values()), got
    return got


def check_no_speedometer() -> None:
    left = []
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            args = cmdline.read_bytes().split(b"\0")
        except OSError:
            continue
        if any(a.endswith(b"perfbench/reference.py") for a in args):
            left.append(cmdline.parent.name)
    assert not left, f"speedometer processes still running: {left}"


def main() -> int:
    spec = check_schema()
    check_tracer()
    check_without_src()
    e2e = check_run(spec, 0)
    layer = check_run(spec, 1)
    record = json.loads(
        (ROOT / ".perfbench_out" / "selftest-seed3-trace1.json").read_text()
    )
    import layers

    span_names = {s["name"] for s in record["spans"]}
    missing = {name for _, _, name, _ in layers.PATCHES} - span_names
    # RMA on the tiny preset stops in its first round, so it never merges.
    assert missing <= {"rrset.merge"}, missing
    assert layer["rma.rounds"]["value"] >= 1
    assert layer["baselines.kpt_calls"]["value"] >= 1
    assert layer["core.threshold_greedy_calls"]["value"] >= 1
    check_no_speedometer()
    print("perfbench selftest ok:", json.dumps(
        {k: v["value"] for k, v in e2e.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
