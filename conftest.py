import os
import sys

from jobs._common import driver_memory


# spark.driver.memory is read at JVM launch, not from SparkConf, so it goes
# into PYSPARK_SUBMIT_ARGS here, at conftest import, before any session
# starts. An explicit SPARK_DRIVER_MEM wins; otherwise the jobs' rule, the
# same as the Tier-1 command's: half of MemTotal, clamped to 2–8g.
os.environ.setdefault("SPARK_DRIVER_MEM", driver_memory())
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
    f"--conf spark.driver.host=127.0.0.1 "
    f"--conf spark.ui.enabled=false "
    "pyspark-shell",
)

import pytest  # noqa: E402
from pyspark.sql import SparkSession  # noqa: E402


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session.

    It serves the tests that run RR generation on Spark
    (``generate_rr_collection`` in ``test_rrset.py``,
    ``test_rrset_identity.py`` and ``test_instances.py``) and
    ``test_singleton_cover_counts_vs_duckdb``, whose ``createDataFrame``
    and group-by are why Arrow is on and the shuffle partitions are set
    here. Master and driver memory come from ``PYSPARK_SUBMIT_ARGS`` (set
    above, before the JVM launches). A test that needs no Spark does not
    ask for this fixture, so running it alone starts no JVM.
    """
    s = (
        SparkSession.builder.appName("repro")
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    # One line in the test log with the session's memory, master and cores.
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
