"""Spans and counters for the traced run, recorded from outside the program.

``Tracer.install`` wraps public entry points of ``repro`` (TEL builds,
window extraction, the TCD operation, OTCD's interval sets, the PHC-Index
and the Spark peel) and ``Tracer.uninstall`` puts the originals back.
Calls that run hundreds of thousands of times per pass (the TCD operation
and the ``IntervalSet`` methods) are *leaf* timings: their time and count
are aggregated and charged to the enclosing span instead of being stored
one by one. ``TEL.del_edge`` is never wrapped.

A span is ``[name, start, end, parent, qid, child_s, info]``; a layer's
self time is its duration minus ``child_s``, the time covered by its
child spans and leaf calls (children never overlap: one thread).
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, QID, CHILD, INFO = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.leaf_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.qid = None
        self.job_groups: set[str] = set()
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str, qid=None):
        parent = self.stack[-1] if self.stack else None
        outer_qid = self.qid
        if qid is not None:
            self.qid = qid
        rec = [name, time.perf_counter(), None, parent, self.qid, 0.0, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self.stack.pop()
            self.qid = outer_qid
            if parent is not None:
                self.spans[parent][CHILD] += rec[END] - rec[START]

    def leaf(self, name: str, seconds: float) -> None:
        self.leaf_s[name] += seconds
        if self.stack:
            self.spans[self.stack[-1]][CHILD] += seconds

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] += n

    # -- queries over the recorded spans -----------------------------------

    def total(self, name: str, *, parent_not: str | None = None) -> float:
        """Summed duration of the spans called ``name``."""
        return sum(
            s[END] - s[START] for s in self._named(name, parent_not)
        )

    def self_time(self, name: str) -> float:
        return sum(s[END] - s[START] - s[CHILD] for s in self._named(name))

    def n_spans(self, name: str, *, parent_not: str | None = None) -> int:
        return sum(1 for _ in self._named(name, parent_not))

    def info_sum(self, name: str, key: str, *, parent_not: str | None = None):
        return sum(s[INFO][key] for s in self._named(name, parent_not))

    def _named(self, name: str, parent_not: str | None = None):
        for s in self.spans:
            if s[NAME] != name:
                continue
            p = s[PARENT]
            if parent_not is not None and p is not None and (
                self.spans[p][NAME] == parent_not
            ):
                continue
            yield s

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "qid", "child_s", "info"],
            "spans": self.spans,
            "leaf_s": dict(self.leaf_s),
            "counters": dict(self.counters),
        }

    # -- wrappers ----------------------------------------------------------

    def _patch(self, owner, attr: str, wrap) -> None:
        orig = getattr(owner, attr)
        setattr(owner, attr, wrap(orig))
        self._undo.append((owner, attr, orig))

    def _leaf_wrapper(self, name: str, calls: str):
        def wrap(orig):
            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return orig(*args, **kwargs)
                finally:
                    self.leaf(name, time.perf_counter() - t0)
                    self.count(calls)
            return wrapper
        return wrap

    def _span_wrapper(self, name: str):
        def wrap(orig):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return orig(*args, **kwargs)
            return wrapper
        return wrap

    def install(self, spark=None) -> None:
        """Wrap the layer entry points; ``spark`` enables the Spark ones."""
        import repro.core as core
        import repro.datasets.temporal as temporal
        import repro.phc as phc
        import repro.phc.baseline as baseline
        import repro.phc.index as phc_index
        from repro.core import otcd, tcd
        from repro.core.otcd import IntervalSet
        from repro.core.tel import TEL

        tracer = self

        def tel_init(orig):
            def __init__(tel, *args, **kwargs):
                with tracer.span("tel.build") as rec:
                    orig(tel, *args, **kwargs)
                rec[INFO] = {"edges": tel.n_edges}
            return __init__

        self._patch(TEL, "__init__", tel_init)
        for owner in (core, tcd):
            self._patch(owner, "window_tel", self._span_wrapper("tel.window"))

        def tcd_op(orig):
            # A k=0 call is pure truncation (no vertex has degree < 0), so
            # preceding each operation with one splits truncation from
            # peeling; by Theorem 1 the result is unchanged.
            def tcd_operation(tel, k, ts, te, **kwargs):
                n0 = tel.n_edges
                t0 = time.perf_counter()
                orig(tel, 0, ts, te)
                t1 = time.perf_counter()
                n1 = tel.n_edges
                out = orig(tel, k, ts, te, **kwargs)
                t2 = time.perf_counter()
                tracer.leaf("tcd.truncate", t1 - t0)
                tracer.leaf("tcd.peel", t2 - t1)
                tracer.count("tcd.ops")
                tracer.count("tcd.edges_truncated", n0 - n1)
                tracer.count("tcd.edges_peeled", n1 - tel.n_edges)
                return out
            return tcd_operation

        for owner in (tcd, otcd, phc_index):
            self._patch(owner, "tcd_operation", tcd_op)
        for method in ("add", "next_uncovered_leq", "count_uncovered"):
            self._patch(
                IntervalSet, method,
                self._leaf_wrapper("otcd.prune", f"otcd.{method}_calls"),
            )
        for owner in (phc, phc_index):
            self._patch(owner, "build_phc_index", self._span_wrapper("phc.index_build"))
        for owner in (phc, baseline):
            self._patch(owner, "iphc_query", self._span_wrapper("phc.iphc"))
        self._patch(temporal, "generate_pdf", self._span_wrapper("datasets.generate"))
        if spark is not None:
            self._install_spark(spark)

    def _install_spark(self, spark) -> None:
        import repro.sparkdist.decomposition as decomposition
        import repro.sparkdist.tcq as tcq

        sc = spark.sparkContext
        tracer = self

        def kcore(orig):
            # The peel is eager (it checkpoints every round), so this span
            # covers it; the rest of the query is the anchor fan-out.
            def temporal_kcore_df(*args, **kwargs):
                tracer.job_groups |= {f"peel-{tracer.qid}", f"fanout-{tracer.qid}"}
                sc.setJobGroup(f"peel-{tracer.qid}", "perfbench peel")
                try:
                    with tracer.span("spark.peel"):
                        return orig(*args, **kwargs)
                finally:
                    sc.setJobGroup(f"fanout-{tracer.qid}", "perfbench anchor fan-out")
            return temporal_kcore_df

        def degrees(orig):
            def wrapper(*args, **kwargs):
                tracer.count("spark.peel_rounds")
                return orig(*args, **kwargs)
            return wrapper

        self._patch(tcq, "temporal_kcore_df", kcore)
        self._patch(decomposition, "degrees", degrees)

    def spark_job_counts(self, spark) -> dict[str, int]:
        """Jobs, stages and tasks run under the job groups set above."""
        st = spark.sparkContext.statusTracker()
        jobs = stages = tasks = 0
        for group in self.job_groups:
            for job in st.getJobIdsForGroup(group):
                jobs += 1
                info = st.getJobInfo(job)
                for sid in info.stageIds if info else ():
                    stages += 1
                    sinfo = st.getStageInfo(sid)
                    tasks += sinfo.numTasks if sinfo else 0
        return {"spark.jobs": jobs, "spark.stages": stages, "spark.tasks": tasks}

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)
