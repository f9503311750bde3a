"""Shared helpers for the test suite: small deterministic graphs and
conversions between edge-list and TEL/Spark representations."""
from __future__ import annotations

import random

import pandas as pd

from repro.core.tcd import window_tel
from repro.core.tel import TEL

Edge = tuple[int, int, int]


def random_temporal_graph(
    seed: int, n_vertices: int = 10, n_edges: int = 40, n_ticks: int = 8
) -> list[Edge]:
    """A random temporal multigraph without self-loops (may be empty)."""
    rng = random.Random(seed)
    out = []
    for _ in range(n_edges):
        u = rng.randrange(n_vertices)
        v = rng.randrange(n_vertices)
        if u == v:
            v = (v + 1) % n_vertices
        out.append((u, v, rng.randint(1, n_ticks)))
    return out


def bursty_temporal_graph(
    seed: int,
    n_vertices: int = 30,
    n_background: int = 60,
    n_ticks: int = 20,
    burst_members: int = 6,
    burst_edges: int = 40,
    burst_window: tuple[int, int] = (8, 11),
) -> list[Edge]:
    """Background noise plus one dense burst — guarantees temporal
    k-cores with a tight TTI inside ``burst_window``."""
    rng = random.Random(seed)
    edges = random_temporal_graph(seed + 1, n_vertices, n_background, n_ticks)
    members = rng.sample(range(n_vertices), burst_members)
    lo, hi = burst_window
    for _ in range(burst_edges):
        u, v = rng.sample(members, 2)
        edges.append((u, v, rng.randint(lo, hi)))
    return edges


def tel_of(edges: list[Edge], ts: int | None = None, te: int | None = None) -> TEL:
    """TEL over ``edges`` (optionally pre-truncated), edge ids = positions."""
    us, vs, tts = (list(x) for x in zip(*edges))
    if ts is None:
        ts = min(tts)
    if te is None:
        te = max(tts)
    return window_tel(us, vs, tts, ts, te)


def edges_pdf(edges: list[Edge]) -> pd.DataFrame:
    """Edge list as the canonical ``(u, v, t)`` pandas frame."""
    return pd.DataFrame(edges, columns=["u", "v", "t"])
