"""Perf ledger: append one timed suite to ``BENCH_<suite>.json`` at the
repository root (report-only; nothing gates on it).

Each entry holds the suite, the git SHA of the checkout (``dirty`` when
``src/`` differs from it), the line count of ``src/repro/**/*.py``
(``src_lines``, the source-size metric), ``nproc``, the repeat count,
the best and median wall seconds and the number of cores the query
returned. The writer uses the standard library only; the suites import
``repro``.

The one suite so far, ``table6-scan``, is the Table-6 full-span Youtube
scan at sf=1, k=10, best of 3 (``repro.experiments.tables.table6``): one
OTCD query over the whole span, timed without building its TEL. Run it
from the repository root::

    PYTHONPATH=src python benchmarks/ledger.py
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def src_lines() -> int:
    """Lines of ``src/repro/**/*.py``, counted as ``wc -l`` does."""
    return sum(
        p.read_bytes().count(b"\n") for p in (ROOT / "src" / "repro").rglob("*.py")
    )


def append_entry(suite: str, seconds: list[float], cores: int, **extra) -> dict:
    """Append one entry for ``suite`` to ``BENCH_<suite>.json``; return it."""
    entry = {
        "suite": suite,
        "sha": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no", "--", "src")),
        "src_lines": src_lines(),
        "nproc": len(os.sched_getaffinity(0)),
        "repeat": len(seconds),
        "best_s": round(min(seconds), 3),
        "median_s": round(statistics.median(seconds), 3),
        "cores": cores,
        **extra,
    }
    path = ROOT / f"BENCH_{suite}.json"
    entries = json.loads(path.read_text()) if path.exists() else []
    entries.append(entry)
    path.write_text(json.dumps(entries, indent=1) + "\n")
    return entry


def table6_scan() -> dict:
    from repro.experiments.tables import table6

    runs = [table6(sf=1.0, k=10) for _ in range(3)]
    cores = {df.attrs["total_cores"] for df in runs}
    if len(cores) != 1:
        raise RuntimeError(f"core counts differ between repeats: {sorted(cores)}")
    return append_entry(
        "table6-scan",
        [df.attrs["scan_seconds"] for df in runs],
        cores.pop(),
        sf=1.0,
        k=10,
    )


if __name__ == "__main__":
    print(json.dumps(table6_scan()))
