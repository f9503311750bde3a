"""Run one workload of the TCQ benchmark and print its metrics.

    python3 perfbench/run.py --workload query-mix --seed 0 --seconds 10 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
Set-up is timed several times and reported as its median. After an
untimed warm-up, one closed-loop client cycles through the rounds of a
pass until ``--seconds`` are up, and always completes at least one pass.
Query latency is reported per query as its fastest or its median answer
in the run, whichever holds still on a shared host (README.md says why).
Every output is checked outside its timer; an exception or a wrong
answer counts as a failed operation.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` then sets up
and runs one more pass with wrappers around the layer entry points
(``tracing.py``) and prints the per-layer metrics; the spans are written
to ``.perfbench/`` when the run ends. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"
SETUP_BUDGET_S = 2.0    # cheap set-ups repeat until this much is timed ...
SETUP_MAX_REPS = 9      # ... or this many repetitions

# Workload timings reported by name: sample key -> [(metric, unit, percentile)].
# 90 means the highest percentile with at least 10 samples beyond it.
NAMED = {
    "otcd_query": [("otcd_query_p50_ms", "ms", 50), ("otcd_query_p90_ms", "ms", 90)],
    "tcd_query": [("tcd_query_p50_ms", "ms", 50), ("tcd_query_p90_ms", "ms", 90)],
    "iphc_query": [("iphc_query_p50_ms", "ms", 50)],
    "spark_query": [("spark_query_p50_s", "s", 50)],
}
SCALE = {"ms": 1e3, "s": 1.0}


def percentile(values: list[float], p: float) -> float:
    """The median, or the nearest-rank percentile ``p``."""
    if p == 50:
        return statistics.median(values)
    xs = sorted(values)
    return xs[max(0, math.ceil(p / 100 * len(xs)) - 1)]


def tail_percentile(n: int) -> int | None:
    """90, or the highest whole percentile with >= 10 of ``n`` samples beyond."""
    if n < 11:
        return None
    return min(90, math.floor(100 * (1 - 10 / n)))


def named_metrics(run, setup_s: list[float], bpe: float, rss_mb: float) -> dict:
    out = {
        "setup_s": {
            "value": statistics.median(setup_s), "unit": "s", "samples": len(setup_s),
        },
        "tel_bytes_per_edge": {"value": bpe, "unit": "B"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "error_rate": {
            "value": run.failed / max(1, run.attempted),
            "unit": "failed/attempted",
        },
    }
    for key, values in run.samples.items():
        for name, unit, p in NAMED.get(key, ()):
            if p == 90:
                p = tail_percentile(len(values))
                if p is None:
                    continue
            out[name] = {
                "value": percentile(values, p) * SCALE[unit],
                "unit": unit,
                "samples": len(values),
                "percentile": p,
            }
    return out


def gm_latency_ms(run, name: str, stat) -> float:
    """Geometric mean, over the queries timed as ``name``, of ``stat`` of
    each query's latencies in the run. Every query weighs the same."""
    per_query = [stat(v) for (n, _), v in run.ops.items() if n == name]
    return statistics.geometric_mean(per_query) * 1e3


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(ts, tp, run, overhead_s: float, spark_counts: dict) -> dict:
    """Per-layer metrics from the traced set-up ``ts`` and pass ``tp``."""
    ms = 1e3
    otcd, tcd = run.otcd_stats, run.tcd_stats
    otcd_cells = sum(s.cells_evaluated for s in otcd)
    op_self = sum(
        tp.self_time(name) for name in {s[0] for s in tp.spans} if name.startswith("query.")
    )
    m = {
        "tel.build_ms": tp.total("tel.build", parent_not="tel.window") * ms,
        "tel.builds": tp.n_spans("tel.build", parent_not="tel.window"),
        "tel.built_edges": tp.info_sum("tel.build", "edges", parent_not="tel.window"),
        "tel.window_build_ms": tp.total("tel.window") * ms,
        "tcd.ops": tp.counters["tcd.ops"],
        "tcd.truncate_ms": tp.leaf_s["tcd.truncate"] * ms,
        "tcd.edges_truncated": tp.counters["tcd.edges_truncated"],
        "tcd.peel_ms": tp.leaf_s["tcd.peel"] * ms,
        "tcd.edges_peeled": tp.counters["tcd.edges_peeled"],
        "tcd.useful_cell_ratio": ratio(
            sum(s.cores_collected for s in tcd), sum(s.cells_evaluated for s in tcd)
        ),
        "otcd.prune_ms": tp.leaf_s["otcd.prune"] * ms,
        "otcd.cells_evaluated": otcd_cells,
        "otcd.pruned_pct": 100 * ratio(
            sum(s.pruned_total() for s in otcd), sum(s.cells_total for s in otcd)
        ),
        "otcd.rows_started": sum(s.rows_started for s in otcd),
        "otcd.useful_cell_ratio": ratio(sum(s.cores_collected for s in otcd), otcd_cells),
        "otcd.other_ms": tp.self_time("query.otcd_query") * ms,
        "phc.index_build_s": ts.total("phc.index_build"),
        "phc.iphc_cells": run.iphc_cells,
        "spark.peel_ms": tp.total("spark.peel") * ms,
        "spark.peel_rounds": tp.counters["spark.peel_rounds"],
        "spark.fanout_ms": tp.self_time("query.spark_query") * ms,
        "spark.core0_edges": 0,
        "spark.anchor_tasks": 0,
        "spark.jobs": 0,
        "spark.stages": 0,
        "spark.tasks": 0,
        "datasets.generate_s": ts.total("datasets.generate"),
        "trace.overhead_s": overhead_s,
        "trace.accounted_pct": 100 * (1 - ratio(op_self, run.busy)),
    }
    m.update(run.extra)
    m.update(spark_counts)
    return {k: float(v) for k, v in m.items()}


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30,
    )
    return out.stdout.strip() or None


def versions() -> dict:
    import numpy
    import pyspark

    return {
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "numpy": numpy.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0,
                    help="0: the registry seeds of repro.datasets (default)")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: no program at {src / 'repro'}", file=sys.stderr)
        return 2
    tmp = SCRATCH / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    sys.path.insert(0, str(src))
    import workloads  # noqa: E402  (needs src/ on the path)
    from tracing import Tracer  # noqa: E402

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    try:
        # -- set-up, timed several times (the Spark session starts once)
        setups: list[float] = []
        while (
            len(setups) < wl.setup_reps
            or (wl.setup_reps > 1 and len(setups) < SETUP_MAX_REPS
                and sum(setups) < SETUP_BUDGET_S)
        ):
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
        bpe = wl.bytes_per_edge()
        if hasattr(wl, "warm_up"):
            wl.warm_up()

        # -- measured rounds, closed loop, until --seconds are up
        run = workloads.Run()
        rounds = 0
        t_end = time.perf_counter() + args.seconds
        while rounds < wl.rounds or time.perf_counter() < t_end:
            wl.run_round(run, rounds % wl.rounds)
            rounds += 1
        # what one answer to every query by every algorithm takes, untraced
        pass_busy = sum(statistics.median(v) for v in run.ops.values())

        traced = None
        if args.trace:
            spark = getattr(wl, "spark", None)
            ts, tp = Tracer(), Tracer()
            ts.install(spark)
            try:
                wl.setup()
            finally:
                ts.uninstall()
            traced = workloads.Run()
            traced.tracer = tp
            tp.install(spark)
            try:
                wl.trace_pass(traced)
            finally:
                tp.uninstall()
            counts = tp.spark_job_counts(spark) if spark is not None else {}
            layers = layer_metrics(
                ts, tp, traced, traced.busy - pass_busy, counts
            )
            out = SCRATCH / f"trace-{args.workload}-seed{args.seed}.json"
            out.write_text(json.dumps({"setup": ts.dump(), "pass": tp.dump()}))
    finally:
        if hasattr(wl, "close"):
            wl.close()

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    named = named_metrics(run, setups, bpe, rss_mb)
    attempted = run.attempted + (traced.attempted if traced else 0)
    failed = run.failed + (traced.failed if traced else 0)
    errors = run.errors + (traced.errors if traced else [])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        **versions(),
        "setup_reps": len(setups),
        "passes": rounds / wl.rounds,
        "pass_busy_s": pass_busy,
        "samples": {k: len(v) for k, v in run.samples.items()},
        "sizes": run.sizes,
        "best_latency_ms": gm_latency_ms(run, wl.latency, min),
        "median_latency_ms": gm_latency_ms(run, wl.latency, statistics.median),
        "metrics": named,
        "errors": errors,
    }
    for name, m in named.items():
        n = f"  (p{m.get('percentile', 50)} of {m['samples']})" if "samples" in m else ""
        print(f"{name:>22} = {m['value']:.6g} {m['unit']}{n}")
    print("record " + json.dumps(record))

    if traced is None:
        metrics = {
            "setup_s": (named["setup_s"]["value"], "s"),
            "latency_ms": (gm_latency_ms(run, wl.latency, wl.latency_stat), "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
            "tel_bytes_per_edge": (bpe, "B"),
        }
    else:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, value in layers.items():
            print(f"{name:>22} = {value:.6g} {units[name]}")
        metrics = {name: (value, units[name]) for name, value in layers.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
