"""PHC-Index — the precomputed core-time index the baseline relies on.

The index of [36] stores, for each vertex, coreness and anchor start
time ``ts``, the *core time*: the smallest end time ``te`` such that
the vertex's coreness in ``G_[ts,te]`` reaches ``k``. Vertex ``v``
then belongs to the historical k-core of ``[ts, te]`` iff
``core_time(v, ts) <= te``.

We build the index for the queried ``k`` and every anchor
``ts in [Ts, Te]`` with one unpruned schedule sweep
(:func:`repro.core.otcd.sweep`) over ``TEL(G_[Ts,Te])``: within a row
``te`` descends, so the last ``te`` at which a vertex is still in the
core is exactly its core time. Restricting construction to the
query's ``k`` and range strictly *favours* the baseline relative to the
paper's full offline index — documented in DESIGN.md.
"""
from __future__ import annotations

from operator import itemgetter
from typing import Sequence

from ..core.otcd import check_query, sweep
from ..core.tcd import tcd_operation  # noqa: F401  (patched by perfbench's traced run)
from ..core.tcd import window_ids
from ..core.tel import TEL

Edge = tuple[int, int, int]

# index type: anchor ts -> {vertex -> core time}
PHCIndex = dict[int, dict[int, int]]


def build_phc_index(edges: Sequence[Edge], k: int, Ts: int, Te: int) -> PHCIndex:
    """Core times for every anchor ``ts`` in ``[Ts, Te]`` at coreness
    ``k``; a vertex absent from ``index[ts]`` is never in the k-core
    within ``[ts, Te]``. ``edges`` is sorted by ``t`` (the input model of
    :mod:`repro.core.tel`); only the window, cut by binary search as in
    ``iphc_query``, is read.

    This is the offline precomputation whose cost the paper's Figure 7
    excludes from baseline response time. Raises ``ValueError`` outside
    the input model (``k >= 1``, ``Ts <= Te``).
    """
    check_query(k, Ts, Te)
    ids = window_ids(edges, Ts, Te, key=itemgetter(2))
    us, vs, tts = zip(*edges[ids.start:ids.stop]) if ids else ((), (), ())
    index: PHCIndex = {ts: {} for ts in range(Ts, Te + 1)}
    window = TEL(us, vs, tts)  # the index keeps no edge ids
    row = n = members = None
    for ts, te, _, core in sweep(window, k, Ts, Te, prune=False):
        # A row's core only loses vertices as te descends, so an unchanged
        # vertex count means an unchanged vertex set.
        if (ts, core.n_vertices) != (row, n):
            row, n, members = ts, core.n_vertices, core.vertices()
        ct = index[ts]
        for v in members:
            ct[v] = te
    return index
