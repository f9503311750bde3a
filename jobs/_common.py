"""Shared plumbing for the ``jobs/`` entrypoints.

Each job exposes ``main(..., sf=...)`` so tests can drive it, plus a
``jobs/<name>.py [sf]`` CLI. Only the two jobs that run Spark
(``table2_datasets``, ``distributed_tcq``) take a session: ``main(spark,
sf=...)``, started by :func:`run_cli` under ``spark-submit``. The rest run
on the driver alone, ``main(sf=...)``, and start no session.
"""
from __future__ import annotations

import sys


def cli_sf() -> float:
    """The scale factor given on the command line (``argv[1]``, default 1.0)."""
    return float(sys.argv[1]) if len(sys.argv) > 1 else 1.0


def run_cli(main) -> None:
    """Build a session and invoke ``main(spark, sf)``."""
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName(main.__module__)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    try:
        main(spark, sf=cli_sf())
    finally:
        spark.stop()
