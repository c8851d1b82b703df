"""Smoke tests for the spark-submit job entrypoints, the one way to run
each table. Tables 1 and 2 run here; table3/5/6 take minutes at their
dataset scales, so ``test_perfbench_hooks.py`` only checks that their calls
bind to the builders' signatures, and the builders run at tiny scale in
``test_tables.py``."""
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

JOBS = Path(__file__).resolve().parent.parent / "jobs"


def _load_common():
    spec = importlib.util.spec_from_file_location("jobs_common", JOBS / "_common.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("job", ["table1_datasets.py", "table2_budgets.py"])
def test_job_runs(job):
    out = subprocess.run(
        [sys.executable, str(JOBS / job)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    assert "Table" in out.stdout


@pytest.mark.parametrize(
    "mem_total_kib,want",
    [(16_465_000, "7g"), (2_097_152, "2g"), (6_291_456, "3g"), (67_108_864, "8g"), (None, "2g")],
    ids=["15.7GB", "2GiB", "6GiB", "64GiB", "unreadable"],
)
def test_driver_memory_is_half_memtotal_clamped(tmp_path, mem_total_kib, want):
    """``get_spark``'s driver memory: half of MemTotal in whole GiB, within
    2–8g, 2g when /proc/meminfo cannot be read. No JVM is started."""
    meminfo = tmp_path / "meminfo"
    if mem_total_kib is not None:
        meminfo.write_text(f"MemFree:  1000 kB\nMemTotal:  {mem_total_kib} kB\n")
    assert _load_common().driver_memory(str(meminfo)) == want


def test_get_spark_keeps_explicit_submit_args(monkeypatch):
    """An explicit ``PYSPARK_SUBMIT_ARGS`` wins over the computed default;
    without one, the default carries ``driver_memory()`` (the session
    builder is stubbed, so no JVM starts)."""
    common = _load_common()

    class Builder:
        def appName(self, app):
            return self

        def getOrCreate(self):
            return Session()

    class Session:
        builder = Builder()
        sparkContext = type("Ctx", (), {"setLogLevel": lambda self, level: None})()

    monkeypatch.setattr(common, "SparkSession", Session)
    monkeypatch.setenv("PYSPARK_SUBMIT_ARGS", "--driver-memory 3g pyspark-shell")
    common.get_spark("t")
    assert common.os.environ["PYSPARK_SUBMIT_ARGS"] == "--driver-memory 3g pyspark-shell"
    monkeypatch.delenv("PYSPARK_SUBMIT_ARGS")
    common.get_spark("t")
    assert f"--driver-memory {common.driver_memory()} " in common.os.environ["PYSPARK_SUBMIT_ARGS"]
