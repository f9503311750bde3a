"""The benchmark workloads.

Each workload generates its inputs from the seed in ``setup`` (timed,
repeatable) and runs closed-loop rounds in ``run_round`` (one client, each
operation sent after the previous one returns), checking every result
outside its timer. A pass is ``rounds`` rounds, ``0 .. rounds-1``, and
answers every query with every algorithm at least once; ``run.py`` cycles
through the rounds until ``--seconds`` are up. ``trace_pass`` answers every
query once with every algorithm. Library functions are looked up through
their module at call time so the traced run's wrappers see every call.

Seed 0 means the registry seeds of ``repro.datasets.DATASETS``, so the
figures line up with EXPERIMENTS.md and Table 3; any other seed
regenerates each dataset with ``generate_pdf(replace(spec, seed=s))``.
"""
from __future__ import annotations

import os
import statistics
import tempfile
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import replace

import repro.core as core
import repro.datasets.temporal as temporal
import repro.phc as phc
from repro.core.tel import TEL

# (dataset, k, span in days): the Table-3 plan, 5 queries per dataset.
QUERY_PLAN = (
    ("collegemsg", 2, 3),
    ("email-eu", 3, 2),
    ("mathoverflow", 2, 1),
    ("stackoverflow", 2, 1),
)
TABLE3_COUNTS = [28, 26, 35, 28, 29, 51, 35, 42, 35, 56] + [15] * 10
# qids 11 and 16 peel in two Spark rounds at every seed; qids 1-10 take 3-6
# rounds depending on the seed, so their timing would follow the seed.
SPARK_QIDS = (11, 16)
SPARK_TEL_EDGES = 50_000


def dataset_spec(name: str, seed: int, sf: float = 1.0):
    spec = temporal.DATASETS[name].scaled(sf)
    return spec if seed == 0 else replace(spec, seed=seed)


def edge_arrays(spec) -> tuple[list[int], list[int], list[int]]:
    pdf = temporal.generate_pdf(spec)
    return pdf["u"].tolist(), pdf["v"].tolist(), pdf["t"].tolist()


def select_queries(specs: dict) -> list[tuple[int, str, int, int, int]]:
    """Table-3 rule: per dataset, a window of the planned span centred on
    5 evenly spaced non-empty bursts. Returns ``(qid, name, k, Ts, Te)``."""
    out = []
    for name, k, days in QUERY_PLAN:
        spec = specs[name]
        span = max(4, days * spec.ticks_per_day)
        sched = temporal.burst_schedule(spec)
        sched = sched[sched["edges"] > 0].reset_index(drop=True)
        n = len(sched)
        for i in range(5):
            center = int(sched.iloc[min(i * max(1, n // 5), n - 1)]["center"])
            Ts = max(1, center - span // 2)
            Te = min(spec.n_ticks, Ts + span - 1)
            Ts = max(1, Te - span + 1)
            out.append((len(out) + 1, name, k, Ts, Te))
    return out


def tel_bytes_per_edge(arrays) -> float:
    """Allocation peak of building a TEL over ``arrays``, per edge (untimed)."""
    tracemalloc.start()
    try:
        tel = TEL(*arrays)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / max(1, tel.n_edges)


class Run:
    """Samples, counts and failures of one benchmark run."""

    def __init__(self) -> None:
        self.ops: dict[tuple, list[float]] = {}    # (name, qid) -> latencies
        self.busy = 0.0                 # seconds inside timed operations
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.tracer = None
        self.otcd_stats: list = []      # QueryStats of every OTCD answer
        self.tcd_stats: list = []
        self.iphc_cells = 0
        self.sizes: dict = {}
        self.extra: dict = {}

    def timed(self, name: str, fn, *args, qid=None, **kwargs):
        """One timed operation; an exception counts as a failure."""
        self.attempted += 1
        span = self.tracer.span(f"query.{name}", qid) if self.tracer else nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                out = fn(*args, **kwargs)
        except Exception as exc:  # recorded; the run goes on
            self.fail(f"{name} q{qid}: {exc!r}")
            return None
        dt = time.perf_counter() - t0
        self.busy += dt
        self.ops.setdefault((name, qid), []).append(dt)
        return out

    @property
    def samples(self) -> dict[str, list[float]]:
        """Latencies by operation name, over all queries."""
        out: dict[str, list[float]] = {}
        for (name, _), v in self.ops.items():
            out.setdefault(name, []).extend(v)
        return out

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(why)

    def expect(self, ok: bool, why: str) -> None:
        if not ok:
            self.fail(why)


def _otcd(arrays, k, Ts, Te):
    return core.otcd_query(core.window_tel(*arrays, Ts, Te), k, Ts, Te)


def _tcd(arrays, k, Ts, Te):
    return core.tcd_query(core.window_tel(*arrays, Ts, Te), k, Ts, Te)


class QueryMix:
    """Table-3 queries answered by OTCD and TCD; iPHC answers qid 1."""

    name = "query-mix"
    latency = "otcd_query"
    # OTCD answers take 10-90 ms on one core and come about once a second
    # per query all run long, so each query's fastest answer catches the
    # host's fast moments; its median follows the host's load instead.
    latency_stat = min
    rounds = len(TABLE3_COUNTS)  # TCD answers one query per round
    setup_reps = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.otcd: dict = {}  # qid -> latest OTCD answer

    def setup(self) -> None:
        specs = {name: dataset_spec(name, self.seed) for name, _, _ in QUERY_PLAN}
        self.arrays = {name: edge_arrays(s) for name, s in specs.items()}
        self.queries = select_queries(specs)
        _, name, k, Ts, Te = self.queries[0]
        self.iphc_edges = list(zip(*self.arrays[name]))
        self.index = phc.build_phc_index(self.iphc_edges, k, Ts, Te)

    def bytes_per_edge(self) -> float:
        return tel_bytes_per_edge(self.arrays[QUERY_PLAN[0][0]])

    def warm_up(self) -> None:
        """One untimed OTCD answer per query: the first pass of a process
        otherwise runs slower while the allocator's arenas grow."""
        for _, name, k, Ts, Te in self.queries:
            _otcd(self.arrays[name], k, Ts, Te)

    def run_round(self, run: Run, r: int, otcd: bool = True) -> None:
        """OTCD answers every query, then TCD (and, in round 0, iPHC) answers
        query ``r + 1``. Every query's OTCD answers are thus spread over the
        whole run, about one a second."""
        if otcd:
            for qid, name, k, Ts, Te in self.queries:
                o = run.timed("otcd_query", _otcd, self.arrays[name], k, Ts, Te, qid=qid)
                self.check_otcd(run, qid, o)
                self.otcd[qid] = o
            run.sizes = {
                "edges": sum(len(a[0]) for a in self.arrays.values()),
                "columns": sum(Te - Ts + 1 for _, _, _, Ts, Te in self.queries),
                "cores": sum(len(o.cores) for o in self.otcd.values() if o is not None),
            }
        self.tcd_and_iphc(run, *self.queries[r], self.otcd.get(self.queries[r][0]))

    def trace_pass(self, run: Run) -> None:
        for r in range(self.rounds):
            self.run_round(run, r, otcd=r == 0)

    def tcd_and_iphc(self, run: Run, qid, name, k, Ts, Te, o) -> None:
        t = run.timed("tcd_query", _tcd, self.arrays[name], k, Ts, Te, qid=qid)
        if t is not None:
            run.tcd_stats.append(t.stats)
            run.expect(o is not None and t.keys() == o.keys(), f"tcd q{qid} != otcd")
        if qid != 1:
            return
        b = run.timed(
            "iphc_query", phc.iphc_query, self.iphc_edges, self.index, k, Ts, Te, qid=qid
        )
        if b is not None:
            run.iphc_cells += b.stats.cells_evaluated
            run.expect(o is not None and b.keys() == o.keys(), f"iphc q{qid} != otcd")

    def check_otcd(self, run: Run, qid: int, o) -> None:
        if o is None:
            return
        run.otcd_stats.append(o.stats)
        if self.seed == 0:
            run.expect(
                len(o.cores) == TABLE3_COUNTS[qid - 1],
                f"otcd q{qid}: {len(o.cores)} cores, Table 3 has "
                f"{TABLE3_COUNTS[qid - 1]}",
            )


class SparkTCQ:
    """``distributed_tcq_pdf`` on the first mathoverflow and stackoverflow
    queries of Table 3."""

    name = "spark-tcq"
    latency = "spark_query"
    # A distributed query takes 2-3 s on every core, so each answer already
    # averages the host's swings; the median of a run's ten-odd answers per
    # query holds stiller than their minimum.
    latency_stat = staticmethod(statistics.median)
    rounds = len(SPARK_QIDS)  # one query per round
    setup_reps = 1  # the session starts once per process

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.spark = None
        self.want = None

    def start_session(self):
        from pyspark.sql import SparkSession

        n = os.cpu_count() or 1
        src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
        tmp = os.path.join(tempfile.gettempdir(), "spark")
        self.spark = (
            SparkSession.builder.master(f"local[{n}]")
            .appName("perfbench")
            .config("spark.ui.enabled", "false")
            .config("spark.ui.showConsoleProgress", "false")
            .config("spark.driver.host", "127.0.0.1")
            .config("spark.driver.memory", "2g")
            .config("spark.sql.shuffle.partitions", str(n))
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.executorEnv.PYTHONPATH", src)
            .config("spark.local.dir", tmp)
            .config("spark.sql.warehouse.dir", os.path.join(tmp, "warehouse"))
            .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={tmp}")
            .getOrCreate()
        )
        self.spark.sparkContext.setLogLevel("ERROR")

    def setup(self) -> None:
        """Session start (once), datasets, their frames, a warm-up pass."""
        from repro.sparkdist import distributed_tcq_pdf

        if self.spark is None:
            self.start_session()
        specs = {name: dataset_spec(name, self.seed) for name, _, _ in QUERY_PLAN}
        queries = {q[0]: q for q in select_queries(specs)}
        self.queries = [queries[qid] for qid in SPARK_QIDS]
        self.frames = {}
        self.arrays = {}
        for _, name, _, _, _ in self.queries:
            pdf = temporal.generate_pdf(specs[name])
            self.arrays[name] = (pdf["u"].tolist(), pdf["v"].tolist(), pdf["t"].tolist())
            self.frames[name] = self.spark.createDataFrame(pdf)
        for _, name, k, Ts, Te in self.queries:
            distributed_tcq_pdf(self.spark, self.frames[name], k, Ts, Te)

    def expected(self) -> None:
        """Driver OTCD answers and T^k_[Ts,Te] sizes (untimed)."""
        self.want = {}
        self.core0 = {}
        for qid, name, k, Ts, Te in self.queries:
            self.want[qid] = _otcd(self.arrays[name], k, Ts, Te).ttis()
            tel = core.window_tel(*self.arrays[name], Ts, Te)
            self.core0[qid] = core.tcd_operation(tel, k, Ts, Te).n_edges

    def bytes_per_edge(self) -> float:
        """On a time prefix of the first dataset: a whole one would take
        seconds under ``tracemalloc``, and the broadcast cores are too small
        for a per-edge figure that holds across seeds."""
        arrays = self.arrays[self.queries[0][1]]
        return tel_bytes_per_edge(tuple(a[:SPARK_TEL_EDGES] for a in arrays))

    def trace_pass(self, run: Run) -> None:
        for r in range(self.rounds):
            self.run_round(run, r)

    def run_round(self, run: Run, r: int) -> None:
        from repro.sparkdist import distributed_tcq_pdf

        if self.want is None:
            self.expected()
        qid, name, k, Ts, Te = self.queries[r]
        got = run.timed(
            "spark_query", distributed_tcq_pdf,
            self.spark, self.frames[name], k, Ts, Te, qid=qid,
        )
        if got is not None:
            ttis = set(zip(got["tti_s"].tolist(), got["tti_e"].tolist()))
            run.expect(ttis == self.want[qid], f"spark q{qid} != driver OTCD")
        run.extra = {
            "spark.core0_edges": sum(self.core0.values()),
            "spark.anchor_tasks": sum(
                Te - Ts + 1 for qid, _, _, Ts, Te in self.queries if self.core0[qid]
            ),
        }
        run.sizes = {
            "edges": sum(len(a[0]) for a in self.arrays.values()),
            "columns": sum(Te - Ts + 1 for _, _, _, Ts, Te in self.queries),
            "cores": sum(len(w) for w in self.want.values()),
        }

    def close(self) -> None:
        if self.spark is None:
            return
        sc = self.spark.sparkContext
        proc = getattr(sc._gateway, "proc", None)
        self.spark.stop()
        sc._gateway.shutdown()
        if proc is not None:  # the JVM exits when its stdin closes
            proc.stdin.close()
            proc.wait(timeout=60)
        self.spark = None


WORKLOADS = {
    cls.name: cls for cls in (QueryMix, SparkTCQ)
}
