"""Shared plumbing for the ``jobs/`` entrypoints.

Each job exposes ``main(..., sf=...)`` so tests can drive it, plus a
``jobs/<name>.py [sf]`` CLI. Only the two jobs that run Spark
(``table2_datasets``, ``distributed_tcq``) take a session: ``main(spark,
sf=...)``, started by :func:`run_cli` under ``spark-submit``. The rest run
on the driver alone, ``main(sf=...)``, and start no session. Every
``main`` ends by printing one JSON summary line (:func:`print_summary`).
"""
from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path


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


def git_sha() -> str:
    """The checkout's commit, or ``"unknown"`` outside a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=Path(__file__).parent,
            capture_output=True, text=True, timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        out = ""
    return out or "unknown"


def print_summary(job_file: str, sf: float, started: float, **counts: int) -> None:
    """Print the job's one summary line, a JSON object: the job (its file
    name), ``sf``, the wall seconds since ``started`` (a
    ``time.perf_counter()`` reading), its result ``counts`` and the git SHA."""
    line = {
        "job": Path(job_file).stem,
        "sf": sf,
        "wall_s": round(time.perf_counter() - started, 3),
        "counts": {key: int(n) for key, n in counts.items()},
        "git_sha": git_sha(),
    }
    print(json.dumps(line))
