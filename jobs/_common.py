"""Shared SparkSession bootstrap for spark-submit job entrypoints.

Each ``jobs/<name>.py`` reproduces one table from the paper; run as
``spark-submit jobs/<name>.py`` or plain ``python jobs/<name>.py``.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        "--master local[*] --driver-memory 16g "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    spark = SparkSession.builder.appName(app).getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def print_table(title: str, pdf) -> None:
    print(f"\n=== {title} ===")
    print(pdf.to_string(index=False))
