"""Shared helpers for the test suite: small deterministic graphs and
conversions between edge-list and TEL/Spark representations.

Every generator returns its edges sorted by time (stable), the input
model of :mod:`repro.core.tel`, so an edge's id is its position in the
list for every implementation alike."""
from __future__ import annotations

import random
from operator import itemgetter
from typing import Sequence

import numpy as np
import pandas as pd

from repro.core.records import CoreRecord, Signature
from repro.core.tcd import window_tel
from repro.core.tel import TEL

Edge = tuple[int, int, int]


def random_temporal_graph(
    seed: int, n_vertices: int = 10, n_edges: int = 40, n_ticks: int = 8
) -> list[Edge]:
    """A random temporal multigraph without self-loops (may be empty),
    sorted by time."""
    rng = random.Random(seed)
    out = []
    for _ in range(n_edges):
        u = rng.randrange(n_vertices)
        v = rng.randrange(n_vertices)
        if u == v:
            v = (v + 1) % n_vertices
        out.append((u, v, rng.randint(1, n_ticks)))
    return sorted(out, key=itemgetter(2))


def bursty_temporal_graph(
    seed: int,
    n_vertices: int = 30,
    n_background: int = 60,
    n_ticks: int = 20,
    burst_members: int = 6,
    burst_edges: int = 40,
    burst_window: tuple[int, int] = (8, 11),
) -> list[Edge]:
    """Background noise plus one dense burst, sorted by time —
    guarantees temporal k-cores with a tight TTI inside ``burst_window``."""
    rng = random.Random(seed)
    edges = random_temporal_graph(seed + 1, n_vertices, n_background, n_ticks)
    members = rng.sample(range(n_vertices), burst_members)
    lo, hi = burst_window
    for _ in range(burst_edges):
        u, v = rng.sample(members, 2)
        edges.append((u, v, rng.randint(lo, hi)))
    return sorted(edges, key=itemgetter(2))


# Self-loops, which every implementation ignores: degree counts distinct
# *other* vertices.
SELF_LOOP_GRAPHS = [
    [(0, 1, 1), (0, 0, 1), (1, 1, 1)],
    # A triangle with a self-loop on core vertex 2 and on a pendant vertex.
    [(1, 2, 1), (2, 2, 1), (2, 3, 2), (1, 3, 2), (3, 4, 3), (4, 4, 3)],
]


def tel_of(edges: list[Edge], ts: int | None = None, te: int | None = None) -> TEL:
    """TEL over time-sorted ``edges`` (optionally pre-truncated), edge
    ids = positions."""
    us, vs, tts = (list(x) for x in zip(*edges))
    if tts != sorted(tts):
        raise ValueError("test edges must be sorted by time")
    if ts is None:
        ts = min(tts)
    if te is None:
        te = max(tts)
    return window_tel(us, vs, tts, ts, te)


def append_edges(
    edges: Sequence[Edge], new: Sequence[Edge]
) -> tuple[list[int], list[int], list[int]]:
    """Edge arrays ``(us, vs, ts)`` of ``edges`` with ``new`` appended in
    order, unchecked: the dynamic-graph update of §6.1 appends to arrays
    its caller owns, and the next query cuts its window from them."""
    us, vs, ts = [], [], []
    for u, v, t in [*edges, *new]:
        us.append(u)
        vs.append(v)
        ts.append(t)
    return us, vs, ts


def arrays_of(edges: Sequence[Edge]) -> tuple[list[int], list[int], list[int]]:
    """Edge arrays ``(us, vs, ts)`` of ``edges`` (three empty lists for none)."""
    return tuple(list(x) for x in zip(*edges)) if edges else ([], [], [])


def sig_ids(sig: Signature) -> frozenset[int]:
    """The edge ids a signature encodes (:mod:`repro.core.records`): ids
    are global, positions in the edge arrays."""
    first, bits = sig
    on = np.unpackbits(np.frombuffer(bits, np.uint8), bitorder="little")
    return frozenset((first + np.flatnonzero(on)).tolist())


def core_edges(edges: Sequence[Edge], rec: CoreRecord) -> tuple[Edge, ...]:
    """A result core's edges as sorted ``(u, v, t)`` triples: signatures
    hold global edge ids, and an id is a position in ``edges``."""
    return tuple(sorted(edges[e] for e in sig_ids(rec.signature)))


def tel_edges(edges: Sequence[Edge], tel: TEL) -> list[Edge]:
    """A TEL's alive edges as sorted ``(u, v, t)`` triples, read through
    its signature: ids are positions in ``edges``."""
    return sorted(edges[e] for e in sig_ids(tel.signature()))


def alive_ids(tel: TEL) -> set[int]:
    """Global ids of a TEL's alive edges by a scan of its positions inside
    ``[head, tail]``, the only ones where ``alive`` is exact."""
    ids, alive = tel.ix.ids, tel.alive
    return {ids[i] for i in range(tel.head, tel.tail + 1) if alive[i]}


def tel_times(edges: Sequence[Edge], tel: TEL) -> list[int]:
    """The timestamps with an alive edge in ``tel``, ascending."""
    return sorted({t for *_, t in tel_edges(edges, tel)})


def edges_pdf(edges: list[Edge]) -> pd.DataFrame:
    """Edge list as the canonical ``(u, v, t)`` pandas frame."""
    return pd.DataFrame(edges, columns=["u", "v", "t"])
