import os
import sys


def _driver_mem() -> str:
    """Half of the host's memory, clamped to 2-8 GB, for the Spark driver
    JVM: the rule of the tier-1 test command in ROADMAP.md.

    SPARK_DRIVER_MEM overrides it. spark.driver.memory is read at JVM
    launch, not from SparkConf, so it must be in PYSPARK_SUBMIT_ARGS before
    pyspark is imported anywhere — this runs at conftest import, which
    pytest loads before any test module.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    gib, src = 0, "fallback"
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):  # kB; half of it in GiB
                    gib, src = int(line.split()[1]) // 2097152, "meminfo"
    except (OSError, ValueError):
        pass
    os.environ["_SPARK_DRIVER_MEM_SRC"] = src
    return f"{min(8, max(2, gib))}g"


os.environ.setdefault("SPARK_DRIVER_MEM", _driver_mem())
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

    Master and driver memory come from ``PYSPARK_SUBMIT_ARGS`` (set above,
    pre-JVM-launch). Per-session configs that *are* honoured post-launch
    (shuffle partitions, Arrow, broadcast threshold) are set here.
    Broadcast joins are disabled so papers about shuffle/join algorithms
    actually exercise the shuffle path at SF~=0.1; a reproduction that
    wants a broadcast join sets the threshold back for that query.
    """
    s = (
        SparkSession.builder.appName("repro")
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    # One line in the test output that says where the driver memory came
    # from (the environment, /proc/meminfo or the 2g fallback).
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"(src={os.environ.get('_SPARK_DRIVER_MEM_SRC', 'env')}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
