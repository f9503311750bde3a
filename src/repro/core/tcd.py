"""TCD — the Temporal Core Decomposition operation (paper §3, Algorithm 4).

``tcd_operation`` mutates a TEL in place: *truncation* drops the edges
outside ``[ts, te]`` (two position ranges of the time-sorted TEL), then
*decomposition* peels vertices with fewer than ``k`` distinct neighbours
(the TEL's below-k worklist, in rounds).
By Theorem 1 it may be applied to any temporal k-core whose interval
contains ``[ts, te]``, which is what makes the decremental schedule
sweep of Algorithms 2 and 3 (:func:`repro.core.otcd.sweep`) correct.

Every query starts from :func:`window_tel`, the window ``G_[Ts,Te]``
cut from the time-sorted edge arrays by binary search (:func:`window_ids`).
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Sequence

from .tel import TEL


def tcd_operation(
    tel: TEL,
    k: int,
    ts: int,
    te: int,
    *,
    min_strength: int = 1,
) -> TEL:
    """Induce ``T^k_[ts,te]`` in place from the graph held by ``tel``.

    ``min_strength`` implements the link-strength extension (paper
    §6.2): a vertex pair counts as adjacent only while it retains at
    least that many parallel edges; pairs that fall below the bound
    lose all their remaining edges. ``min_strength=1`` is plain TCQ.
    ``k=0`` truncates only.
    """
    tel.truncate(ts, te)
    # Peeling a vertex, like dropping a weak pair, deletes whole pairs and
    # so never weakens another pair: one pass before peeling is enough.
    if min_strength > 1:
        tel.drop_weak_pairs(min_strength)
    tel.peel(k)
    return tel


def window_ids(times: Sequence, ts: int, te: int, *, key=None) -> range:
    """Positions of the entries with ``ts <= time <= te`` in a time-sorted
    sequence (the input model, :mod:`repro.core.tel`): two binary
    searches, O(log n) reads. ``key`` maps an entry to its time.

    Binary search itself guarantees that the entries just outside the
    cut lie outside ``[ts, te]``; the two just inside are read too, and a
    ``ValueError`` is raised if either lies outside, since that can only
    happen when the sequence is not sorted.
    """
    lo = bisect_left(times, ts, key=key)
    hi = bisect_right(times, te, lo, key=key)
    if lo < hi:
        first, last = times[lo], times[hi - 1]
        if key is not None:
            first, last = key(first), key(last)
        if first > te or last < ts:
            raise ValueError(
                f"edges are not sorted by time around the cut [{lo}, {hi}) "
                f"for [{ts}, {te}]; the input model requires time-sorted "
                f"edge arrays (edge id = position)"
            )
    return range(lo, hi)


def window_tel(
    edge_u: Sequence[int],
    edge_v: Sequence[int],
    edge_t: Sequence[int],
    ts: int,
    te: int,
) -> TEL:
    """``TEL(G_[ts,te])`` built directly from the full, time-sorted edge
    arrays, keeping *global* edge ids so signatures stay comparable
    across algorithms (paper §5.2: queries start from a truncated copy
    of TEL(G); building only the window is the same object for less
    work). Costs O(log |E| + |W|) for a window of |W| edges; raises
    ``ValueError`` when the cut shows ``edge_t`` is not sorted.
    """
    return TEL(edge_u, edge_v, edge_t, eids=window_ids(edge_t, ts, te))
