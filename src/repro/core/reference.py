"""Brute-force reference implementations used as the correctness oracle
for every TCQ algorithm in this reproduction.

Each temporal k-core is computed *independently* (project the window,
then peel on the detemporalised simple graph), with none of the
decremental/pruning machinery under test — so agreement between an
algorithm and this module is meaningful evidence of correctness.
"""
from __future__ import annotations

from collections import defaultdict
from typing import Sequence

Edge = tuple[int, int, int]


def temporal_kcore(
    edges: Sequence[Edge], k: int, ts: int, te: int, *, min_strength: int = 1
) -> list[Edge]:
    """The temporal k-core ``T^k_[ts,te]`` as a sorted edge list.

    Degree counts *distinct other* vertices, so self-loops are dropped;
    ``min_strength`` additionally requires at least that many parallel
    edges per retained pair (link-strength extension, paper §6.2).
    """
    window = [(u, v, t) for (u, v, t) in edges if ts <= t <= te and u != v]
    mult: dict[tuple[int, int], int] = defaultdict(int)
    for u, v, _ in window:
        a, b = (u, v) if u <= v else (v, u)
        mult[(a, b)] += 1
    # Peel to fixpoint: drop weak pairs, then drop low-degree vertices.
    dead_pair: set[tuple[int, int]] = {
        p for p, m in mult.items() if m < min_strength
    }
    dead_vertex: set[int] = set()
    while True:
        nbrs: dict[int, set[int]] = defaultdict(set)
        for (a, b), m in mult.items():
            if (a, b) in dead_pair or a in dead_vertex or b in dead_vertex:
                continue
            nbrs[a].add(b)
            nbrs[b].add(a)
        low = {v for v, s in nbrs.items() if len(s) < k}
        if not low:
            break
        dead_vertex |= low
    alive = {v for v, s in nbrs.items() if len(s) >= k}
    return sorted(
        (u, v, t)
        for (u, v, t) in window
        if u in alive
        and v in alive
        and ((u, v) if u <= v else (v, u)) not in dead_pair
    )


def distinct_cores(
    edges: Sequence[Edge],
    k: int,
    Ts: int,
    Te: int,
    *,
    min_strength: int = 1,
    max_span: int | None = None,
) -> dict[tuple[Edge, ...], tuple[int, int]]:
    """All distinct non-empty temporal k-cores over every subinterval of
    ``[Ts, Te]``, mapping the core's edge tuple to its TTI (min/max
    timestamp in the core). Quadratic in the span — small inputs only.
    """
    out: dict[tuple[Edge, ...], tuple[int, int]] = {}
    for ts in range(Ts, Te + 1):
        for te in range(Te, ts - 1, -1):
            core = temporal_kcore(edges, k, ts, te, min_strength=min_strength)
            if not core:
                continue
            tmin = min(t for _, _, t in core)
            tmax = max(t for _, _, t in core)
            if max_span is not None and tmax - tmin + 1 > max_span:
                continue
            out.setdefault(tuple(core), (tmin, tmax))
    return out


def coreness_over_interval(
    edges: Sequence[Edge], v: int, ts: int, te: int
) -> int:
    """Coreness of vertex ``v`` in the detemporalised projected graph
    over ``[ts, te]`` (0 if ``v`` has no window edges). Used to verify
    PHC-Index core times."""
    k = 1
    while True:
        core = temporal_kcore(edges, k, ts, te)
        alive = {u for u, _, _ in core} | {w for _, w, _ in core}
        if v not in alive:
            return k - 1
        k += 1
