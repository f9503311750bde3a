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
  current row induce the same core (Lemma 2).
* **PoU** (``ts' > ts``): rows ``r in [ts+1, ts']`` share their cores
  with row ``ts`` for every column ``<= te`` (Lemmas 3-4), so cells
  ``[r, te] .. [r, r]`` are skipped.
* **PoL** (``ts' > ts`` and ``te' < te``): in rows ``r in [ts'+1, te']``
  the cells ``[r, te] .. [r, te'+1]`` equal the later cell ``[r, te']``
  (Lemma 5).

Pruned cells are kept per row as an :class:`IntervalSet`; the sweep
jumps straight to the next unpruned column, and TCD's ability to jump
across multiple columns at once (Theorem 1) keeps the decremental chain
valid. Both queries keep the first core per TTI (Equivalence, Property 2).
The PHC-Index build and the Spark anchor tasks run the same sweep over
a range of rows.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from typing import Iterator

from .records import CoreRecord, QueryResult, QueryStats
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
        i = bisect_left(iv, (lo, -1))
        # Step back if the previous interval overlaps/abuts lo.
        if i > 0 and iv[i - 1][1] >= lo - 1:
            i -= 1
        new_lo, new_hi = lo, hi
        newly = hi - lo + 1
        j = i
        while j < len(iv) and iv[j][0] <= new_hi + 1:
            a, b = iv[j]
            overlap = min(b, hi) - max(a, lo) + 1
            if overlap > 0:
                newly -= overlap
            new_lo = min(new_lo, a)
            new_hi = max(new_hi, b)
            j += 1
        iv[i:j] = [(new_lo, new_hi)]
        return newly

    def covers(self, x: int) -> bool:
        iv = self._iv
        i = bisect_left(iv, (x + 1, -1)) - 1
        return i >= 0 and iv[i][0] <= x <= iv[i][1]

    def next_uncovered_leq(self, x: int, floor: int) -> int | None:
        """Largest ``c <= x`` with ``c >= floor`` not covered, else None."""
        c = x
        iv = self._iv
        while c >= floor:
            i = bisect_left(iv, (c + 1, -1)) - 1
            if i >= 0 and iv[i][0] <= c <= iv[i][1]:
                c = iv[i][0] - 1
            else:
                return c
        return None

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

    def intervals(self) -> list[tuple[int, int]]:
        return list(self._iv)


def _apply_pruning(
    ts: int,
    te: int,
    tti: tuple[int, int],
    pruned: dict[int, IntervalSet],
    stats: QueryStats,
    hi: int,
) -> None:
    """Algorithm 3 on the trigger cell ``[ts, te]`` with TTI ``tti``;
    rows after ``hi`` are not swept, so they are not marked."""
    ts_p, te_p = tti
    if te_p < te:  # Rule 1: PoR — cells [ts, te-1] .. [ts, te'].
        stats.por_triggers += 1
        stats.por_pruned += pruned[ts].add(te_p, te - 1)
    if ts_p > ts:  # Rule 2: PoU — rows ts+1..ts', columns te .. r.
        stats.pou_triggers += 1
        n = 0
        for r in range(ts + 1, min(ts_p, hi) + 1):
            n += pruned[r].add(r, te)
        stats.pou_pruned += n
    if ts_p > ts and te_p < te:  # Rule 3: PoL — rows ts'+1..te', cols te'+1..te.
        stats.pol_triggers += 1
        n = 0
        for r in range(ts_p + 1, min(te_p, hi) + 1):
            n += pruned[r].add(te_p + 1, te)
        stats.pol_pruned += n


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
) -> Iterator[tuple[int, int, TEL]]:
    """Walk the anchor rows ``rows = (lo, hi)`` (default all) of the
    schedule of TCQ(G, k, [Ts, Te]) and yield ``(ts, te, core)`` for
    every non-empty cell evaluated, in schedule order.

    ``core`` is the live TEL of ``T^k_[ts,te]``: read it before resuming.
    ``prune=True`` skips the cells PoR/PoU/PoL prove redundant;
    ``prune=False`` evaluates every cell until its row empties. Work
    counters go to ``stats``. ``graph`` is left untouched.
    """
    lo, hi = rows or (Ts, Te)
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
        if chain.is_empty():
            break  # T^k_[ts,Te] empty ⇒ all remaining rows empty too
        stats.rows_started += 1
        # The last row may consume the chain; the others sweep a copy.
        row = chain if ts == hi else chain.copy()
        while te is not None and te >= ts:
            if te < Te:  # cell [ts, Te] was evaluated by the chain step
                tcd_operation(row, k, ts, te, min_strength=min_strength)
                stats.cells_evaluated += 1
            if row.is_empty():
                if prune:
                    stats.empty_skipped += prow.count_uncovered(ts, te - 1)
                break
            yield ts, te, row
            if prune:
                _apply_pruning(ts, te, row.get_tti(), pruned, stats, hi)
                te = prow.next_uncovered_leq(te - 1, ts)
            else:
                te -= 1


def check_query(k: int, Ts: int, Te: int) -> None:
    """Reject a TCQ instance outside the input model (``k >= 1``, ``Ts <= Te``)."""
    if k < 1 or Ts > Te:
        raise ValueError(f"TCQ needs k >= 1 and Ts <= Te; got k={k}, [{Ts}, {Te}]")


def _collect(
    tel: TEL, ts: int, te: int, *, materialize: bool, signatures: bool
) -> CoreRecord:
    # Signatures/edge lists copy O(|core|) per collected core — exact
    # identities for tests and result export. Large scans (Table 6's
    # full-span query collects tens of thousands of cores) disable them
    # and rely on TTI identity (Property 2).
    return CoreRecord(
        ts=ts,
        te=te,
        tti=tel.get_tti(),
        n_vertices=tel.n_vertices(),
        n_edges=tel.n_edges,
        signature=tel.signature() if signatures else frozenset(),
        edges=tuple(tel.edges()) if materialize else None,
    )


def otcd_query(
    graph: TEL,
    k: int,
    Ts: int,
    Te: int,
    *,
    rows: tuple[int, int] | None = None,
    prune: bool = True,
    materialize: bool = False,
    min_strength: int = 1,
    max_span: int | None = None,
    signatures: bool = True,
) -> QueryResult:
    """Answer TCQ(G, k, [Ts, Te]) with the optimized TCD algorithm.

    Returns every distinct temporal k-core exactly once (keyed by TTI,
    reported with its first inducing cell) plus work and pruning
    statistics. ``graph`` is left untouched. ``rows`` restricts the
    sweep to a range of anchor rows. ``max_span`` filters results by
    TTI span (time-span extension, §6.2) without affecting enumeration;
    ``min_strength`` is the link-strength extension (see
    :func:`tcd_operation`). ``signatures=False`` skips the O(|core|)
    edge-set signature per collected core (use for large full-span
    scans; TTIs still identify cores uniquely by Property 2).
    """
    check_query(k, Ts, Te)
    span = Te - Ts + 1
    stats = QueryStats(cells_total=span * (span + 1) // 2)
    by_tti: dict[tuple[int, int], CoreRecord | None] = {}
    for ts, te, core in sweep(
        graph, k, Ts, Te,
        rows=rows, prune=prune, min_strength=min_strength, stats=stats,
    ):
        tti = core.get_tti()
        if tti in by_tti:
            continue
        if max_span is not None and tti[1] - tti[0] + 1 > max_span:
            by_tti[tti] = None  # seen, filtered by span constraint
        else:
            by_tti[tti] = _collect(
                core, ts, te, materialize=materialize, signatures=signatures
            )
    cores = [r for r in by_tti.values() if r is not None]
    stats.cores_collected = len(cores)
    return QueryResult(cores=cores, stats=stats)


def tcd_query(graph: TEL, k: int, Ts: int, Te: int, **kw) -> QueryResult:
    """Algorithm 2: answer TCQ(G, k, [Ts, Te]) with plain TCD — the
    sweep of :func:`otcd_query` without pruning, so every cell of each
    row is evaluated until the row empties (takes the same options)."""
    return otcd_query(graph, k, Ts, Te, prune=False, **kw)
