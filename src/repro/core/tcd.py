"""TCD — the Temporal Core Decomposition operation (paper §3, Algorithm 4).

``tcd_operation`` mutates a TEL in place: *truncation* drops timeline
nodes outside ``[ts, te]`` from both ends, then *decomposition* peels
vertices with fewer than ``k`` distinct neighbours (degree heap H_v).
By Theorem 1 it may be applied to any temporal k-core whose interval
contains ``[ts, te]``, which is what makes the decremental schedule
sweep of Algorithms 2 and 3 (:func:`repro.core.otcd.sweep`) correct.
"""
from __future__ import annotations

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
    # -- truncation: walk the timeline from the head up to ts ...
    t = tel.head_t
    while t is not None and t < ts:
        bucket = tel.tl[t]
        for e in list(bucket):
            tel.del_edge(e, from_tl=False)
        bucket.clear()
        nxt = tel.next_t.get(t)
        tel._del_tl_node(t)
        t = nxt
    # ... and from the tail down to te.
    t = tel.tail_t
    while t is not None and t > te:
        bucket = tel.tl[t]
        for e in list(bucket):
            tel.del_edge(e, from_tl=False)
        bucket.clear()
        prv = tel.prev_t.get(t)
        tel._del_tl_node(t)
        t = prv

    # Peeling a vertex, like dropping a weak pair, deletes whole pairs and
    # so never weakens another pair: one pass before peeling is enough.
    if min_strength > 1:
        _enforce_strength(tel, min_strength)

    # -- decomposition: peel vertices with degree < k.
    heap = tel.heap
    while True:
        d = heap.peek_degree()
        if d is None or d >= k:
            break
        v = heap.pop()
        if v is None:
            break
        for e in tel.incident_edges(v):
            if e in tel.alive:
                tel.del_edge(e)
    return tel


def _enforce_strength(tel: TEL, min_strength: int) -> None:
    """Drop every vertex pair whose parallel-edge count is below the
    link-strength bound."""
    weak = [
        (a, b)
        for a, c in tel.nbr.items()
        for b, m in c.items()
        if m < min_strength and a < b
    ]
    for a, b in weak:
        for e in tel.incident_edges(a):
            if b in (tel.edge_u[e], tel.edge_v[e]):
                tel.del_edge(e)


def window_tel(
    edge_u: list[int],
    edge_v: list[int],
    edge_t: list[int],
    ts: int,
    te: int,
) -> TEL:
    """``TEL(G_[ts,te])`` built directly from the full edge arrays,
    keeping *global* edge ids so signatures stay comparable across
    algorithms (paper §5.2: queries start from a truncated copy of
    TEL(G); building only the window is the same object for less work).
    """
    eids = [e for e, t in enumerate(edge_t) if ts <= t <= te]
    return TEL(edge_u, edge_v, edge_t, eids=eids)
