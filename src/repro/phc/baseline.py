"""iPHC-Query — the baseline algorithm (paper §2.3.2, Algorithm 1).

For each anchored start time ``ts``, the end time ``te`` sweeps *up*
from ``ts`` to ``Te`` and the temporal k-core grows incrementally:

* a min-heap ``H_v`` over PHC-Index core times releases vertices into
  the core vertex set ``V`` as soon as ``core_time <= te``;
* a min-heap ``H_e`` over edge timestamps releases window edges; an
  edge joins ``E`` only when both endpoints are already in ``V``,
  otherwise it is pushed back for re-examination at a later ``te``
  (the push-back churn is the baseline's intrinsic inefficiency the
  paper contrasts with TCD's delete-once behaviour).

A core ``(V, E)`` is collected when non-empty and its TTI is new: the TTI
identifies a core (Property 2), as in OTCD.
"""
from __future__ import annotations

import heapq
from bisect import bisect_left
from operator import itemgetter
from typing import Sequence

from ..core.otcd import check_query
from ..core.records import CoreRecord, QueryResult, QueryStats, edge_signature
from ..core.tcd import window_ids
from .index import PHCIndex

Edge = tuple[int, int, int]


def iphc_query(
    edges: Sequence[Edge],
    index: PHCIndex,
    k: int,
    Ts: int,
    Te: int,
) -> QueryResult:
    """Answer TCQ(G, k, [Ts, Te]) incrementally using a PHC-Index.

    ``edges`` is the full temporal edge list under the input model of
    :mod:`repro.core.tel` (sorted by ``t``, ids = positions), so
    signatures are comparable with the TEL-based algorithms and the
    window is cut by binary search, as for TCD and OTCD; self-loops are
    ignored. The index must cover anchors ``Ts..Te`` (see
    ``build_phc_index``) and a missing anchor raises ``ValueError``; it
    must also be built at this ``k``, which a plain dict cannot show, so
    the caller passes the index's ``k``. Raises ``ValueError`` outside the
    input model (``k >= 1``, ``Ts <= Te``).
    """
    check_query(k, Ts, Te)
    span = Te - Ts + 1
    res = QueryResult(stats=QueryStats(cells_total=span * (span + 1) // 2))
    seen: set[tuple[int, int]] = set()
    ids = window_ids(edges, Ts, Te, key=itemgetter(2))
    if any(ts not in index for ts in range(Ts, Te + 1)):
        raise ValueError(f"the PHC-Index does not cover every anchor of [{Ts}, {Te}]")
    window = [
        (t, e, u, v)
        for e, (u, v, t) in enumerate(edges[ids.start:ids.stop], ids.start)
        if u != v
    ]

    for ts in range(Ts, Te + 1):
        hv = [(ct, v) for v, ct in index[ts].items()]
        heapq.heapify(hv)
        # ``window`` is sorted by (t, e), so its suffix is already a heap.
        he = window[bisect_left(window, (ts,)):]
        V: set[int] = set()
        E: set[int] = set()
        t_min = t_max = None  # running TTI of (V, E)
        for te in range(ts, Te + 1):
            res.stats.cells_evaluated += 1
            changed = False
            while hv and hv[0][0] <= te:
                _, v = heapq.heappop(hv)
                V.add(v)
                changed = True
            pushback = []
            while he and he[0][0] <= te:
                item = heapq.heappop(he)
                t, e, u, v = item
                if u in V and v in V:
                    E.add(e)
                    changed = True
                    t_min = t if t_min is None else min(t_min, t)
                    t_max = t if t_max is None else max(t_max, t)
                else:
                    pushback.append(item)
            for item in pushback:
                heapq.heappush(he, item)
            if not changed or not V or not E:
                continue
            tti = (t_min, t_max)
            if tti in seen:
                continue
            seen.add(tti)
            res.cores.append(
                CoreRecord(
                    ts=ts,
                    te=te,
                    tti=tti,
                    n_vertices=len(V),
                    n_edges=len(E),
                    signature=edge_signature(E),
                )
            )
    res.stats.cores_collected = len(res.cores)
    return res
