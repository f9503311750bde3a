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
paper's full offline index — documented in DESIGN.md. A Spark-parallel
builder over anchors lives in ``repro.sparkdist.phc``.
"""
from __future__ import annotations

from typing import Sequence

from ..core.otcd import sweep
from ..core.tcd import tcd_operation  # noqa: F401  (patched by perfbench's traced run)
from ..core.tcd import window_tel

Edge = tuple[int, int, int]

# index type: anchor ts -> {vertex -> core time}
PHCIndex = dict[int, dict[int, int]]


def build_phc_index(
    edges: Sequence[Edge],
    k: int,
    Ts: int,
    Te: int,
    *,
    rows: tuple[int, int] | None = None,
) -> PHCIndex:
    """Core times for every anchor ``ts`` in ``rows`` (default
    ``[Ts, Te]``) at coreness ``k``; a vertex absent from ``index[ts]``
    is never in the k-core within ``[ts, Te]``.

    This is the offline precomputation whose cost the paper's Figure 7
    excludes from baseline response time.
    """
    lo, hi = rows or (Ts, Te)
    us, vs, tts = zip(*edges) if edges else ((), (), ())
    index: PHCIndex = {ts: {} for ts in range(lo, hi + 1)}
    window = window_tel(us, vs, tts, Ts, Te)
    for ts, te, core in sweep(window, k, Ts, Te, rows=rows, prune=False):
        ct = index[ts]
        for v in core.deg:
            ct[v] = te
    return index
