"""The schedule sweep behind TCD and OTCD (paper §3.2 and §4).

The schedule of a TCQ instance is the triangular table of subintervals
``[ts, te]`` with ``Ts <= ts <= te <= Te`` (paper Figure 4), traversed
row-major: ``ts`` ascending, ``te`` descending within a row.
:func:`sweep` walks it once for every algorithm: a decremental row-start
chain holds ``T^k_[ts,Te]`` (Theorem 1) and each row sweeps a copy of
it. TCD (Algorithm 2, :func:`tcd_query`) evaluates every cell until its
row empties; OTCD (Algorithm 3, :func:`otcd_query`) lets each induced
core's TTI ``[ts', te']`` trigger up to three pruning rules:

* **PoR** (``te' < te``): cells ``[ts, te-1] .. [ts, te']`` in the
  current row induce the same core (Lemma 2), so the row jumps to
  column ``te'-1``.
* **PoU** (``ts' > ts``): rows ``r in [ts+1, ts']`` share their cores
  with row ``ts`` for every column ``<= te`` (Lemmas 3-4), so cells
  ``[r, te] .. [r, r]`` are skipped.
* **PoL** (``ts' > ts`` and ``te' < te``): in rows ``r in [ts'+1, te']``
  the cells ``[r, te] .. [r, te'+1]`` equal the later cell ``[r, te']``
  (Lemma 5).

PoU and PoL mark cells of later rows, kept per row as an
:class:`IntervalSet`; the sweep jumps straight to the next unmarked
column, and TCD's ability to jump across multiple columns at once
(Theorem 1) keeps the decremental chain valid. Both queries keep the
first core per TTI (Equivalence, Property 2). The PHC-Index build and
the Spark anchor tasks run the same sweep over a range of rows.
"""
from __future__ import annotations

import operator
from bisect import bisect_left
from collections import defaultdict
from typing import Iterator, Sequence

from .records import CoreRecord, QueryResult, QueryStats, edge_signature
from .tcd import tcd_operation
from .tel import TEL


class IntervalSet:
    """Sorted disjoint integer intervals with merge-on-add.

    Rows hold only a handful of intervals in practice, so list + bisect
    is both simple and fast enough.
    """

    __slots__ = ("_iv",)

    def __init__(self) -> None:
        self._iv: list[tuple[int, int]] = []

    def add(self, lo: int, hi: int) -> int:
        """Cover ``[lo, hi]``; return how many integers were newly covered."""
        if lo > hi:
            return 0
        iv = self._iv
        i = bisect_left(iv, (lo,))
        if i and iv[i - 1][1] >= lo - 1:  # the previous run overlaps or touches lo
            i -= 1
        j, newly = i, hi - lo + 1
        while j < len(iv) and iv[j][0] <= hi + 1:
            a, b = iv[j]
            newly -= max(0, min(b, hi) - max(a, lo) + 1)
            j += 1
        if j > i:
            lo, hi = min(lo, iv[i][0]), max(hi, iv[j - 1][1])
        iv[i:j] = [(lo, hi)]
        return newly

    def next_uncovered_leq(self, x: int, floor: int) -> int | None:
        """Largest ``c <= x`` with ``c >= floor`` not covered, else None.

        Intervals never overlap or touch, so the integer just left of the
        run covering ``x`` is uncovered."""
        iv = self._iv
        i = bisect_left(iv, (x + 1,)) - 1  # last interval starting <= x
        c = iv[i][0] - 1 if i >= 0 and iv[i][1] >= x else x
        return c if c >= floor else None

    def count_uncovered(self, lo: int, hi: int) -> int:
        """How many integers in ``[lo, hi]`` are not covered."""
        if lo > hi:
            return 0
        total = hi - lo + 1
        for a, b in self._iv:
            overlap = min(b, hi) - max(a, lo) + 1
            if overlap > 0:
                total -= overlap
        return total


def sweep(
    graph: TEL,
    k: int,
    Ts: int,
    Te: int,
    *,
    rows: tuple[int, int] | None = None,
    prune: bool = True,
    min_strength: int = 1,
    stats: QueryStats | None = None,
) -> Iterator[tuple[int, int, tuple[int, int], TEL]]:
    """Walk the anchor rows ``rows = (lo, hi)`` (default all) of the
    schedule of TCQ(G, k, [Ts, Te]) and yield ``(ts, te, tti, core)``
    for every non-empty cell evaluated, in schedule order.

    ``core`` is the live TEL of ``T^k_[ts,te]`` and ``tti`` its TTI:
    read the core before resuming.
    ``prune=True`` skips the cells PoR/PoU/PoL prove redundant;
    ``prune=False`` evaluates every cell until its row empties. Work
    counters go to ``stats``. ``graph`` is left untouched. Rows outside
    ``[Ts, Te]`` raise ``ValueError``: the chain starts at ``[lo, Te]``.
    """
    lo, hi = rows or (Ts, Te)
    if not Ts <= lo <= hi <= Te:
        raise ValueError(f"rows {lo}..{hi} are not inside [{Ts}, {Te}]")
    if stats is None:
        stats = QueryStats()
    pruned: dict[int, IntervalSet] = defaultdict(IntervalSet)
    chain = graph.copy()  # will hold T^k_[ts, Te] as ts advances
    for ts in range(lo, hi + 1):
        prow = pruned[ts]
        te = prow.next_uncovered_leq(Te, ts) if prune else Te
        if te is None:
            continue  # row fully pruned
        # Advance the row-start chain to [ts, Te] (jumps over pruned rows).
        tcd_operation(chain, k, ts, Te, min_strength=min_strength)
        stats.cells_evaluated += 1
        if not chain.n_edges:
            break  # T^k_[ts,Te] empty ⇒ all remaining rows empty too
        stats.rows_started += 1
        # The last row may consume the chain; the others sweep a copy.
        row = chain if ts == hi else chain.copy()
        # te only falls along a row, so rows ts+1..pou_hw already hold a
        # wider PoU mark [r, te_1] of an earlier trigger in this row.
        pou_hw = ts
        while te is not None and te >= ts:
            if te < Te:  # cell [ts, Te] was evaluated by the chain step
                tcd_operation(row, k, ts, te, min_strength=min_strength)
                stats.cells_evaluated += 1
            if not row.n_edges:
                break
            tti = row.get_tti()
            yield ts, te, tti, row
            if not prune:
                te -= 1
                continue
            ts_p, te_p = tti
            if te_p < te:  # PoR: the jump below skips [ts, te-1] .. [ts, te']
                stats.por_triggers += 1
                stats.por_pruned += prow.count_uncovered(te_p, te - 1)
            if ts_p > ts:  # PoU: rows ts+1..ts', columns te .. r
                stats.pou_triggers += 1
                top = min(ts_p, hi)
                for r in range(pou_hw + 1, top + 1):
                    stats.pou_pruned += pruned[r].add(r, te)
                pou_hw = max(pou_hw, top)
                if te_p < te:  # PoL: rows ts'+1..te', columns te .. te'+1
                    stats.pol_triggers += 1
                    for r in range(ts_p + 1, min(te_p, hi) + 1):
                        stats.pol_pruned += pruned[r].add(te_p + 1, te)
            te = prow.next_uncovered_leq(te_p - 1, ts)


def check_query(k: int, Ts: int, Te: int) -> None:
    """Reject a TCQ instance outside the input model: integers with ``k >= 1``
    and ``Ts <= Te`` (a fractional ``k`` would peel wrongly)."""
    try:
        ok = operator.index(k) >= 1 and operator.index(Ts) <= operator.index(Te)
    except TypeError:  # not an integer
        ok = False
    if not ok:
        raise ValueError(
            f"TCQ needs integers k >= 1 and Ts <= Te; got k={k!r}, [{Ts!r}, {Te!r}]"
        )


def otcd_query(
    graph: TEL,
    k: int,
    Ts: int,
    Te: int,
    *,
    rows: tuple[int, int] | None = None,
    prune: bool = True,
    min_strength: int = 1,
    signatures: bool = True,
) -> QueryResult:
    """Answer TCQ(G, k, [Ts, Te]) with the optimized TCD algorithm.

    Returns every distinct temporal k-core exactly once (keyed by TTI,
    reported with its first inducing cell) plus work and pruning
    statistics. ``graph`` is left untouched. ``rows`` restricts the
    sweep to a range of anchor rows inside ``[Ts, Te]``. ``min_strength``
    is the link-strength extension (see :func:`tcd_operation`); the
    time-span extension filters the result (:func:`within_span`).
    ``signatures=False`` skips the O(|core|) edge-set signature per
    collected core (use for large full-span scans; TTIs still identify
    cores uniquely by Property 2).
    """
    check_query(k, Ts, Te)
    span = Te - Ts + 1
    stats = QueryStats(cells_total=span * (span + 1) // 2)
    by_tti: dict[tuple[int, int], CoreRecord] = {}
    no_edges = edge_signature(())
    for ts, te, tti, core in sweep(
        graph, k, Ts, Te,
        rows=rows, prune=prune, min_strength=min_strength, stats=stats,
    ):
        if tti not in by_tti:
            by_tti[tti] = CoreRecord(
                ts, te, tti, core.n_vertices, core.n_edges,
                core.signature() if signatures else no_edges,
            )
    cores = list(by_tti.values())
    stats.cores_collected = len(cores)
    return QueryResult(cores=cores, stats=stats)


def within_span(cores: Sequence[CoreRecord], max_span: int) -> list[CoreRecord]:
    """The result cores whose TTI spans at most ``max_span`` timestamps
    (the time-span extension, §6.2: a filter on the result)."""
    return [c for c in cores if c.tti[1] - c.tti[0] + 1 <= max_span]


def top_n_shortest_span(cores: Sequence[CoreRecord], n: int) -> list[CoreRecord]:
    """The ``n`` result cores with the shortest TTI span, ties broken by
    TTI start (the top-n variant of the time-span extension, §6.2).
    Raises ``ValueError`` for ``n < 0``."""
    if n < 0:
        raise ValueError(f"top_n_shortest_span needs n >= 0; got {n}")
    return sorted(cores, key=lambda c: (c.tti[1] - c.tti[0], c.tti))[:n]


def tcd_query(graph: TEL, k: int, Ts: int, Te: int, **kw) -> QueryResult:
    """Algorithm 2: answer TCQ(G, k, [Ts, Te]) with plain TCD — the
    sweep of :func:`otcd_query` without pruning, so every cell of each
    row is evaluated until the row empties (takes the same options)."""
    return otcd_query(graph, k, Ts, Te, prune=False, **kw)
