"""TCD algorithm (Algorithm 2) vs brute-force enumeration of all
subintervals (distinct-core semantics of Definition 2)."""
import pytest

from repro.core.otcd import tcd_query

from . import reference as ref
from .util import (
    bursty_temporal_graph, core_edges, random_temporal_graph, tel_edges, tel_of,
)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_distinct_cores_match_reference(seed, k):
    edges = random_temporal_graph(seed, n_vertices=10, n_edges=50, n_ticks=9)
    expect = set(ref.distinct_cores(edges, k, 1, 9))
    res = tcd_query(tel_of(edges, 1, 9), k, 1, 9)
    assert {core_edges(edges, c) for c in res.cores} == expect


@pytest.mark.parametrize("seed", range(5))
def test_bursty_graph(seed):
    edges = bursty_temporal_graph(seed, n_ticks=15, burst_window=(6, 9))
    expect = set(ref.distinct_cores(edges, 2, 1, 15))
    res = tcd_query(tel_of(edges, 1, 15), 2, 1, 15)
    assert {core_edges(edges, c) for c in res.cores} == expect
    assert len(res.cores) > 0  # the burst guarantees at least one core


@pytest.mark.parametrize("seed", range(5))
def test_subrange_query(seed):
    """[Ts, Te] strictly inside the graph's lifetime."""
    edges = bursty_temporal_graph(seed, n_ticks=20, burst_window=(8, 11))
    expect = set(ref.distinct_cores(edges, 2, 5, 14))
    res = tcd_query(tel_of(edges, 5, 14), 2, 5, 14)
    assert {core_edges(edges, c) for c in res.cores} == expect


def test_no_core_returns_empty():
    edges = [(1, 2, 1), (2, 3, 2), (3, 4, 3)]  # a path: no 2-core
    res = tcd_query(tel_of(edges), 2, 1, 3)
    assert res.cores == []
    assert res.stats.cores_collected == 0


def test_single_tick_graph():
    edges = [(1, 2, 3), (2, 3, 3), (1, 3, 3)]
    res = tcd_query(tel_of(edges, 3, 3), 2, 3, 3)
    assert len(res.cores) == 1
    assert res.cores[0].tti == (3, 3)
    assert core_edges(edges, res.cores[0]) == tuple(sorted(edges))


def test_tti_recorded_matches_core_extremes():
    edges = bursty_temporal_graph(3)
    for c in tcd_query(tel_of(edges), 2, 1, 20).cores:
        ce = core_edges(edges, c)
        tmin = min(t for _, _, t in ce)
        tmax = max(t for _, _, t in ce)
        assert c.tti == (tmin, tmax)
        assert c.n_edges == len(ce)
        vs = {u for u, _, _ in ce} | {v for _, v, _ in ce}
        assert c.n_vertices == len(vs)


def test_input_tel_not_mutated():
    edges = bursty_temporal_graph(1)
    tel = tel_of(edges)
    before = tel_edges(edges, tel)
    tcd_query(tel, 2, 1, 20)
    assert tel_edges(edges, tel) == before


def test_stats_cells_total():
    edges = bursty_temporal_graph(2)
    res = tcd_query(tel_of(edges), 2, 1, 20)
    assert res.stats.cells_total == 20 * 21 // 2


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_monotone_in_k(k):
    """Core count cannot grow when k grows (Figure 10's trend)."""
    edges = bursty_temporal_graph(4, burst_members=8, burst_edges=120)
    lo = tcd_query(tel_of(edges), k, 1, 20)
    hi = tcd_query(tel_of(edges), k + 1, 1, 20)
    assert len(hi.cores) <= len(lo.cores)
