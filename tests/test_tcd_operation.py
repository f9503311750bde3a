"""TCD operation (Algorithm 4) vs the brute-force reference, plus the
decremental property (Theorem 1)."""
import pytest

from repro.core.tcd import tcd_operation

from . import reference as ref
from .util import bursty_temporal_graph, random_temporal_graph, tel_edges, tel_of


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_matches_reference_full_interval(seed, k):
    edges = random_temporal_graph(seed, n_vertices=12, n_edges=50, n_ticks=10)
    tel = tel_of(edges)
    tcd_operation(tel, k, 1, 10)
    assert tel_edges(edges, tel) == ref.temporal_kcore(edges, k, 1, 10)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("window", [(1, 5), (3, 8), (5, 10), (2, 2)])
def test_matches_reference_subwindows(seed, window):
    edges = random_temporal_graph(seed, n_vertices=12, n_edges=60, n_ticks=10)
    ts, te = window
    tel = tel_of(edges)
    tcd_operation(tel, 2, ts, te)
    assert tel_edges(edges, tel) == ref.temporal_kcore(edges, 2, ts, te)


@pytest.mark.parametrize("seed", range(6))
def test_theorem1_decremental_induction(seed):
    """TCD from a containing temporal k-core equals TCD from scratch."""
    edges = bursty_temporal_graph(seed)
    k = 2
    outer = tel_of(edges)
    tcd_operation(outer, k, 2, 18)          # T^k_[2,18]
    inner_via_outer = outer.copy()
    tcd_operation(inner_via_outer, k, 6, 12)  # TCD on the core
    assert tel_edges(edges, inner_via_outer) == ref.temporal_kcore(edges, k, 6, 12)


@pytest.mark.parametrize("seed", range(6))
def test_theorem1_multi_step_jump(seed):
    """TCD may jump several columns at once (used by OTCD after PoR)."""
    edges = bursty_temporal_graph(seed)
    k = 2
    step = tel_of(edges)
    tcd_operation(step, k, 1, 20)
    tcd_operation(step, k, 5, 14)
    tcd_operation(step, k, 8, 11)
    assert tel_edges(edges, step) == ref.temporal_kcore(edges, k, 8, 11)


def test_truncation_only_when_k_zero():
    edges = [(1, 2, 1), (2, 3, 4), (3, 4, 9)]
    tel = tel_of(edges)
    tcd_operation(tel, 0, 2, 9)
    assert tel_edges(edges, tel) == [(2, 3, 4), (3, 4, 9)]


def test_peeling_cascade():
    """Removing one low-degree vertex may cascade (classic k-core)."""
    # Chain 1-2-3-4 at t=1: every vertex peels at k=2.
    tel = tel_of([(1, 2, 1), (2, 3, 1), (3, 4, 1)])
    tcd_operation(tel, 2, 1, 1)
    assert tel.n_edges == 0


def test_triangle_survives_k2():
    tel = tel_of([(1, 2, 1), (2, 3, 2), (1, 3, 3)])
    tcd_operation(tel, 2, 1, 3)
    assert tel.n_vertices == 3 and tel.n_edges == 3


def test_parallel_edges_do_not_fake_degree():
    """Two vertices with many parallel edges are still only degree 1."""
    tel = tel_of([(1, 2, t) for t in range(1, 6)])
    tcd_operation(tel, 2, 1, 5)
    assert tel.n_edges == 0


def test_result_is_maximal():
    """No vertex outside the core could have been kept (reference
    double-check on a handcrafted mixed graph)."""
    # Triangle core {1, 2, 3} plus the pendant chain 3-4-5 that must peel.
    edges = [(1, 2, 5), (2, 3, 5), (3, 4, 5), (1, 3, 6), (4, 5, 6)]
    tel = tel_of(edges)
    tcd_operation(tel, 2, 5, 6)
    assert tel.vertices() == {1, 2, 3}
    assert tel_edges(edges, tel) == ref.temporal_kcore(edges, 2, 5, 6)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k", [2, 3, 4])
def test_idempotent(seed, k):
    """TCD applied twice with the same arguments is a no-op."""
    edges = bursty_temporal_graph(seed)
    tel = tel_of(edges)
    tcd_operation(tel, k, 5, 15)
    once = tel_edges(edges, tel)
    tcd_operation(tel, k, 5, 15)
    assert tel_edges(edges, tel) == once
