"""Shared SparkSession bootstrap for spark-submit job entrypoints.

Each ``jobs/<name>.py`` reproduces one table from the paper; run as
``spark-submit jobs/<name>.py`` or plain ``python jobs/<name>.py``.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def driver_memory(meminfo: str = "/proc/meminfo") -> str:
    """Half of the host's MemTotal in whole GiB, clamped to 2–8g (2g when
    ``meminfo`` cannot be read), as the tier-1 test command sets it."""
    try:
        with open(meminfo) as f:
            kib = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError, IndexError):
        return "2g"
    return f"{min(max(kib // 2097152, 2), 8)}g"


def get_spark(app: str) -> SparkSession:
    """A local session; an explicit ``PYSPARK_SUBMIT_ARGS`` wins."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master local[*] --driver-memory {driver_memory()} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    spark = SparkSession.builder.appName(app).getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def print_table(title: str, pdf) -> None:
    print(f"\n=== {title} ===")
    print(pdf.to_string(index=False))
