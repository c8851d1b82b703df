"""Table-3-cell benchmark: one command per workload, checked outputs.

    python3 perfbench/run.py --workload rma_flixster --seed 1 --seconds 10 --trace 0

Run from the root of a repository checkout; ``repro`` need not be
installed (``src`` is put on the path of the driver and of the Spark
Python workers). Each run starts its own ``local[k]`` session and builds
the workload's instance and evaluation collection.

``--trace 0`` runs Table-3 cells until ``--seconds`` of cell time have
passed (at least one cell) and prints the end-to-end metrics, with set-up
and cell times rescaled to a nominal host speed (``reference.py``).
``--trace 1`` is the separate traced run: set-up and
one cell with every layer wrapped (``layers.py``) between two untraced
cells, for the tracing overhead and the repeat check, then the
kernel-vs-fan-out probe. It prints the per-layer metrics. Every cell
passes the gates in ``workloads.check_record``.

The last line of standard output is the JSON result; the line before it
holds the machine facts and seeds. The whole run record, spans included,
goes to ``.perfbench_out/``. See README.md for the metric definitions.
"""
from __future__ import annotations

import argparse
import json
import os
import shlex
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DRIVER_MEMORY = "2g"
MAX_CORES = 4
PROBE_SIZES = (20_000, 100_000)


def _configure_env(cores: int) -> str:
    """Pin master, memory and scratch dirs before pyspark starts its JVM."""
    master = f"local[{cores}]"
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    # Spark's Python workers import repro from the same tree as the driver.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, str(SRC))
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["SPARK_LAUNCHER_OPTS"] = java_opts  # spark-submit's launcher JVM
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master {master}",
            f"--driver-memory {DRIVER_MEMORY}",
            f"--driver-java-options {shlex.quote(java_opts)}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf spark.local.dir={shlex.quote(str(tmp))}",
            "pyspark-shell",
        ]
    )
    return master


def _start_spark():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _stop_spark(spark) -> None:
    """Stop the session, then the JVM it launched, and wait for it."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except Exception:
            proc.kill()
            proc.wait()


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _facts(spark, master: str, wl, seed: int, eval_seed: int) -> dict:
    import numpy
    import pandas
    import pyarrow
    import pyspark

    from workloads import RMA_SEED, TI_SEED

    return {
        "nproc": os.cpu_count(),
        "master": master,
        "default_parallelism": spark.sparkContext.defaultParallelism,
        "driver_memory": DRIVER_MEMORY,
        "python": sys.version.split()[0],
        "spark": pyspark.__version__,
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "pyarrow": pyarrow.__version__,
        "workload": wl.name,
        "preset": wl.preset,
        "kernel": wl.kernel,
        "workload_seed": seed,
        "eval_seed": eval_seed,
        "rma_seed": RMA_SEED,
        "ti_seed": TI_SEED,
    }


class Run:
    """State of one benchmark invocation."""

    def __init__(self, spark, wl, seed: int):
        self.spark, self.wl, self.seed = spark, wl, seed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.cells: list[dict] = []
        self.raw: dict = {}

    def cell(self, st, tracer=None):
        """Run and check one cell; returns its records, or None if it raised.

        A cell that raises or breaks a gate counts as failed. Every failure
        and every other broken check appends to ``errors``.
        """
        from workloads import check_record, run_cell

        self.attempted += 1
        root = tracer.open("cell") if tracer is not None else None
        try:
            records = run_cell(self.spark, self.wl, st)
        except Exception:
            self.failed += 1
            self.errors.append(traceback.format_exc())
            return None
        finally:
            if tracer is not None:
                tracer.close(root)
        errs, share = [], 0.0
        for rec in records:
            e, s = check_record(rec, st)
            errs += e
            share = max(share, s)
        if errs:
            self.failed += 1
            self.errors += errs
        self.cells.append(
            {
                "traced": tracer is not None,
                "wall_s": sum(r.wall_s for r in records),
                "revenue": sum(r.revenue for r in records),
                "max_spend_share": share,
                "records": [
                    {k: v for k, v in vars(r).items() if k != "allocation"}
                    for r in records
                ],
            }
        )
        return records


def _untraced(run: Run, seconds: float, t_session: float, speedo):
    """Set-up and cells, each rescaled to the nominal host speed by the
    speedometer blocks logged while it ran."""
    from workloads import set_up

    st = set_up(run.spark, run.wl, run.seed)
    t_setup = time.perf_counter()
    setup_wall = t_setup - t_session
    setup_s = speedo.normalise(setup_wall, t_session, t_setup)
    run.raw = {"setup_wall_s": setup_wall,
               "setup_block_s": speedo.block_s(t_session, t_setup)}
    norm = []
    while run.failed == 0:
        t0 = time.perf_counter()
        records = run.cell(st)
        t1 = time.perf_counter()
        if records is not None:
            cell = run.cells[-1]
            cell["block_s"] = speedo.block_s(t0, t1)
            cell["norm_s"] = speedo.normalise(cell["wall_s"], t0, t1)
            norm.append(cell["norm_s"])
        if t1 - t_setup >= seconds:
            break
    cells = run.cells
    metrics = {
        "setup_s": (setup_s, "s"),
        "cell_s": (statistics.median(norm) if norm else 0.0, "s"),
        "revenue": (
            statistics.median(c["revenue"] for c in cells) if cells else 0.0,
            "cpe_units",
        ),
        "driver_peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    return st, metrics, []


def _traced(run: Run, session_s: float, speedo):
    import layers
    from repro.influence.rrset import generate_rr_collection, generate_rr_local
    from tracer import Tracer
    from workloads import same_allocation, set_up

    tracer = Tracer()
    setup_root = tracer.open("setup")
    layers.install(tracer)
    try:
        st = set_up(run.spark, run.wl, run.seed, tracer)
    finally:
        tracer.restore()
    tracer.close(setup_root)
    m = layers.setup_metrics(tracer, setup_root)
    m["spark.session_s"] = session_s

    # An untraced cell on each side of the traced one, so that warm-up
    # does not pass for tracing overhead (or hide it).
    before = run.cell(st)
    layers.install(tracer)
    try:
        cell_root = len(tracer.spans)
        traced = run.cell(st, tracer)
    finally:
        tracer.restore()
    after = run.cell(st)
    left = tracer.still_patched()
    if left:
        run.errors.append(f"wrappers left after restore: {left}")
    if None not in (before, traced, after):
        if not (same_allocation(before, traced) and same_allocation(before, after)):
            run.failed += 1
            run.errors.append("repeated cells returned different allocations")
        m.update(layers.cell_metrics(tracer, cell_root, traced))
        plain = [run.cells[0], run.cells[2]]
        m["trace.overhead"] = (
            run.cells[1]["wall_s"] / statistics.mean(c["wall_s"] for c in plain)
            - 1.0
        )
        for i, rec in enumerate(run.cells[0]["records"]):
            key = rec["algo"].lower().replace("-", "_")
            m[f"cell.{key}_s"] = statistics.mean(
                c["records"][i]["wall_s"] for c in plain
            )
            m[f"cell.{key}_revenue"] = rec["revenue"]
        m["cell.max_spend_share"] = max(c["max_spend_share"] for c in run.cells)

    # Kernel vs fan-out on this workload's graph and kernel: the numbers
    # that place instances._LOCAL_GEN_THRESHOLD.
    inst = st.inst
    for n_rr in PROBE_SIZES:
        for kind, fn in (
            ("local", lambda n: generate_rr_local(
                inst.csr, inst.cpe, n, seed=run.seed, kernel=run.wl.kernel)),
            ("spark", lambda n: generate_rr_collection(
                run.spark, inst.csr, inst.cpe, n, seed=run.seed,
                kernel=run.wl.kernel)),
        ):
            t0 = time.perf_counter()
            rr = fn(n_rr)
            m[f"probe.{kind}_{n_rr // 1000}k_s"] = time.perf_counter() - t0
            if rr.n_rr != n_rr:
                run.errors.append(f"probe {kind} returned {rr.n_rr} of {n_rr}")

    m["host.block_s"] = speedo.block_s()
    metrics = {
        name: (float(m.get(name, 0.0)), unit)
        for name, unit in layers.UNITS.items()
    }
    spans = [
        {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
         **s.counts}
        for s in tracer.spans
    ]
    return st, metrics, spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC}/repro not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    cores = min(MAX_CORES, os.cpu_count() or 1)
    master = _configure_env(cores)
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    from reference import Speedometer
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    speedo = Speedometer(OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.speed")
    try:
        t_session = time.perf_counter()
        spark = _start_spark()
        session_s = time.perf_counter() - t_session
        try:
            run = Run(spark, wl, args.seed)
            if args.trace:
                st, metrics, spans = _traced(run, session_s, speedo)
            else:
                st, metrics, spans = _untraced(run, args.seconds, t_session, speedo)
            facts = _facts(spark, master, wl, args.seed, st.eval_seed)
        finally:
            _stop_spark(spark)
    finally:
        speedo.stop()

    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
        },
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(
        json.dumps(
            {"facts": facts, "result": result, "raw": run.raw,
             "cells": run.cells, "errors": run.errors, "spans": spans},
            indent=1, default=str,
        )
    )
    for err in run.errors:
        print(err, file=sys.stderr)
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
