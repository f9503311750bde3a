"""Perf ledger: time the paper's evaluation suites and append one entry per
suite to ``BENCH_<suite>.json`` at the repository root (report-only;
nothing gates on it). It is the one timing harness of the repository
besides ``perfbench/``; run every suite from the repository root with::

    PYTHONPATH=src python benchmarks/ledger.py

Every entry holds the suite, the git SHA of the checkout (``dirty`` when
``src/`` differs from it), the line count of ``src/repro/**/*.py``
(``src_lines``, the source-size metric), ``nproc`` and the repeat count;
a timing is reported as its best and median seconds over the repeats.

Suites:

* ``table6-scan``: the Table-6 full-span Youtube scan at sf=1, k=10,
  best of 3 (``repro.experiments.tables.table6``): one OTCD query over the
  whole span, timed without building its TEL.
* ``fig7``: the 20 Table-3 queries at sf=1 through
  ``repro.experiments.tables.fig7``, which asserts that OTCD, TCD and iPHC
  return the same cores. One untimed warm-up pass, then 3 passes; per query
  and algorithm the best and median seconds (``fig7`` rounds to 0.1 ms),
  per algorithm the geometric mean of the per-query bests. The PHC-Index
  build is offline in the paper and is reported on its own.
* ``sweeps``: the Figure 9/12 shapes on CollegeMsg query 1 at sf=0.1: OTCD
  and TCD at k=2..6 and at spans of 1-4 days around the query's centre,
  best of 3, each with its result count. The window's TEL is built outside
  the timer.
"""
from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEAT = 3


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def src_lines() -> int:
    """Lines of ``src/repro/**/*.py``, counted as ``wc -l`` does."""
    return sum(
        p.read_bytes().count(b"\n") for p in (ROOT / "src" / "repro").rglob("*.py")
    )


def append_entry(suite: str, **fields) -> dict:
    """Append one entry for ``suite`` to ``BENCH_<suite>.json``; return it."""
    entry = {
        "suite": suite,
        "sha": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no", "--", "src")),
        "src_lines": src_lines(),
        "nproc": len(os.sched_getaffinity(0)),
        "repeat": REPEAT,
        **fields,
    }
    path = ROOT / f"BENCH_{suite}.json"
    entries = json.loads(path.read_text()) if path.exists() else []
    entries.append(entry)
    path.write_text(json.dumps(entries, indent=1) + "\n")
    return entry


def summary(seconds) -> dict:
    """Best and median of one timing's repeats."""
    return {
        "best_s": round(min(seconds), 6),
        "median_s": round(statistics.median(seconds), 6),
    }


def same_counts(counts: set, what: str) -> int:
    """The one result count all repeats returned."""
    if len(counts) != 1:
        raise RuntimeError(f"{what}: counts differ between repeats: {sorted(counts)}")
    return counts.pop()


def table6_scan() -> dict:
    from repro.experiments.tables import table6

    runs = [table6(sf=1.0, k=10) for _ in range(REPEAT)]
    return append_entry(
        "table6-scan",
        **summary([df.attrs["scan_seconds"] for df in runs]),
        cores=same_counts({df.attrs["total_cores"] for df in runs}, "table6"),
        sf=1.0,
        k=10,
    )


FIG7_TIMINGS = {
    "baseline": "baseline (s)",
    "TCD": "TCD (s)",
    "OTCD": "OTCD (s)",
    "index_build": "index build (s)",
}


def fig7_suite() -> dict:
    from repro.experiments.tables import fig7

    fig7(sf=1.0)  # warm-up: dataset arrays and allocator arenas
    runs = [fig7(sf=1.0) for _ in range(REPEAT)]
    queries = []
    for i, row in runs[0].iterrows():
        q = {"id": int(row["id"]), "G": row["G"], "k": int(row["k"])}
        q["results"] = same_counts(
            {int(df["results"].iloc[i]) for df in runs}, f"fig7 query {q['id']}"
        )
        for name, col in FIG7_TIMINGS.items():
            q[name] = summary([float(df[col].iloc[i]) for df in runs])
        queries.append(q)
    geomean = {
        name: round(
            math.exp(statistics.fmean(math.log(q[name]["best_s"]) for q in queries)), 6
        )
        for name in ("baseline", "TCD", "OTCD")
    }
    return append_entry(
        "fig7", warmup=1, sf=1.0, geomean_best_s=geomean, queries=queries
    )


def sweeps() -> dict:
    from repro.core.otcd import otcd_query, tcd_query
    from repro.core.tcd import window_tel
    from repro.datasets.temporal import DATASETS, edge_arrays
    from repro.experiments.queries import selected_queries

    sf = 0.1
    q = selected_queries(sf=sf)[0]  # collegemsg query 1
    arrays = edge_arrays(q.dataset, sf)

    def point(k: int, Ts: int, Te: int) -> dict:
        tel = window_tel(*arrays, Ts, Te)
        out = {"k": k, "Ts": Ts, "Te": Te}
        keys = {}
        for name, query in (("OTCD", otcd_query), ("TCD", tcd_query)):
            seconds = []
            for _ in range(REPEAT):
                t0 = time.perf_counter()
                res = query(tel, k, Ts, Te)
                seconds.append(time.perf_counter() - t0)
            out[name] = summary(seconds)
            keys[name] = res.keys()
        if keys["OTCD"] != keys["TCD"]:
            raise RuntimeError(f"OTCD and TCD disagree at k={k}, [{Ts}, {Te}]")
        out["cores"] = len(keys["OTCD"])
        return out

    spec = DATASETS[q.dataset].scaled(sf)
    center = (q.Ts + q.Te) // 2

    def span_window(days: int) -> tuple[int, int]:
        span = days * spec.ticks_per_day
        Ts = max(1, center - span // 2)
        return Ts, min(spec.n_ticks, Ts + span - 1)

    return append_entry(
        "sweeps",
        sf=sf,
        qid=q.qid,
        dataset=q.dataset,
        impact_of_k=[point(k, q.Ts, q.Te) for k in range(2, 7)],
        impact_of_span=[
            {"days": d, **point(q.k, *span_window(d))} for d in range(1, 5)
        ],
    )


if __name__ == "__main__":
    for suite in (table6_scan, fig7_suite, sweeps):
        entry = suite()
        print(json.dumps({k: v for k, v in entry.items() if k != "queries"}))
