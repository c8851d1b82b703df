"""Smoke tests for the spark-submit job entrypoints, the one way to run
each table. Tables 1 and 2 run here; table3/5/6 take minutes at their
dataset scales, so they are only parsed here, and the builders they call
run at tiny scale in ``test_tables.py``."""
import subprocess
import sys
from pathlib import Path

import pytest

JOBS = Path(__file__).resolve().parent.parent / "jobs"


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


def test_heavy_jobs_importable():
    """table3/5/6 scripts parse and reference real builders."""
    for job in ("table3_runtime.py", "table5_tau.py", "table6_subsim.py"):
        src = (JOBS / job).read_text()
        compile(src, job, "exec")
        assert "repro.experiments.tables" in src
