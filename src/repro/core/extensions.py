"""Query/data-model extensions of TCQ (paper §6).

All three extensions reuse the (O)TCD machinery directly:

* **Dynamic graphs** — ``TEL.add_edge`` appends new events in O(1);
  :func:`requery_after_append` shows the evolve-then-requery loop.
* **Link strength** — ``otcd_query(..., min_strength=σ)``: pairs with
  fewer than σ parallel edges lose them before decomposition.
* **Time span** — ``otcd_query(..., max_span=s)`` filters result cores
  by TTI span; :func:`top_n_shortest_span` is the top-n-shortest
  variant mentioned in the paper.
"""
from __future__ import annotations

from typing import Iterable, Sequence

from .otcd import otcd_query
from .records import CoreRecord, QueryResult
from .tel import TEL


def top_n_shortest_span(cores: Sequence[CoreRecord], n: int) -> list[CoreRecord]:
    """The ``n`` result cores with the shortest TTI span (ties broken by
    TTI start for determinism)."""
    return sorted(cores, key=lambda c: (c.tti[1] - c.tti[0], c.tti))[:n]


def requery_after_append(
    graph: TEL,
    new_edges: Iterable[tuple[int, int, int]],
    k: int,
    Ts: int,
    Te: int,
    **kw,
) -> QueryResult:
    """Dynamic-graph workflow (paper §6.1): append newly-arrived edges
    (timestamps must be non-decreasing) and re-run OTCD over the
    updated TEL. ``graph`` is mutated, as a live ingest buffer would be.
    """
    for u, v, t in new_edges:
        graph.add_edge(u, v, t)
    return otcd_query(graph, k, Ts, Te, **kw)
