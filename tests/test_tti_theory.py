"""Empirical verification of the TTI theory (paper §4.1-§4.2):
Theorem 2, Properties 1-3 and Lemmas 2-5 on random graphs."""
import pytest

from repro.core.tcd import tcd_operation

from . import reference as ref
from .util import bursty_temporal_graph, random_temporal_graph, tel_of


def core_and_tti(edges, k, ts, te):
    core = ref.temporal_kcore(edges, k, ts, te)
    if not core:
        return None, None
    tmin = min(t for _, _, t in core)
    tmax = max(t for _, _, t in core)
    return tuple(core), (tmin, tmax)


GRAPHS = [bursty_temporal_graph(s) for s in range(5)] + [
    random_temporal_graph(s, n_vertices=10, n_edges=60, n_ticks=12)
    for s in range(5)
]
# Bursts over a background too sparse to hold a 2-core: the core's TTI lies
# strictly inside [1, T], so it triggers PoL.
SPARSE_GRAPHS = [bursty_temporal_graph(s, n_background=10) for s in range(5)]


@pytest.mark.parametrize("gi", range(len(GRAPHS)))
@pytest.mark.parametrize("k", [2, 3])
def test_theorem2_tti_induces_identical_core(gi, k):
    """T^k over the TTI equals the core itself, and TEL's get_tti agrees."""
    edges = GRAPHS[gi]
    T = max(t for _, _, t in edges)
    core, tti = core_and_tti(edges, k, 1, T)
    assert core is not None
    assert core_and_tti(edges, k, *tti)[0] == core
    tel = tel_of(edges)
    tcd_operation(tel, k, 1, T)
    assert tel.get_tti() == tti


@pytest.mark.parametrize("gi", range(5))
def test_theorem2_strict_subinterval_differs(gi):
    """Any strict subinterval of the TTI loses at least the boundary
    edges, so it cannot induce an identical core."""
    edges = GRAPHS[gi]
    T = max(t for _, _, t in edges)
    core, tti = core_and_tti(edges, 2, 1, T)
    if core is None or tti[0] == tti[1]:
        pytest.skip("degenerate")
    inner_l = core_and_tti(edges, 2, tti[0] + 1, tti[1])[0]
    inner_r = core_and_tti(edges, 2, tti[0], tti[1] - 1)[0]
    assert inner_l != core and inner_r != core


@pytest.mark.parametrize("gi", range(len(GRAPHS)))
def test_property2_equivalence(gi):
    """Identical cores <=> identical TTIs, across every subinterval."""
    edges = GRAPHS[gi]
    T = max(t for _, _, t in edges)
    T = min(T, 14)
    by_core, by_tti = {}, {}
    for ts in range(1, T + 1):
        for te in range(ts, T + 1):
            core, tti = core_and_tti(edges, 2, ts, te)
            if core is None:
                continue
            assert by_core.setdefault(core, tti) == tti
            assert by_tti.setdefault(tti, core) == core


@pytest.mark.parametrize("gi", range(len(GRAPHS)))
def test_property3_inclusion(gi):
    """[ts,te] ⊆ [ts',te'] implies TTI ⊆ TTI' (nested windows)."""
    edges = GRAPHS[gi]
    T = max(t for _, _, t in edges)
    windows = [(1, T), (2, T - 1), (3, T - 2), (4, T - 3)]
    prev_tti = None
    for ts, te in reversed([w for w in windows if w[0] <= w[1]]):
        core, tti = core_and_tti(edges, 2, ts, te)
        if core is None:
            prev_tti = None
            continue
        if prev_tti is not None:
            # The larger window's TTI contains the smaller window's.
            assert tti[0] <= prev_tti[0] <= prev_tti[1] <= tti[1]
        prev_tti = tti


@pytest.mark.parametrize("gi", range(5))
def test_lemma2_por_region_shares_tti(gi):
    """For te'' in [te', te] the TTI of T^k_[ts,te''] equals [ts',te']."""
    edges = GRAPHS[gi]
    T = max(t for _, _, t in edges)
    core, tti = core_and_tti(edges, 2, 1, T)
    assert core is not None
    ts_p, te_p = tti
    for te2 in range(te_p, T + 1):
        assert core_and_tti(edges, 2, 1, te2)[1] == tti


@pytest.mark.parametrize("gi", range(5))
def test_lemma3_pou_region_shares_tti(gi):
    """For ts'' in [ts, ts'] the TTI of T^k_[ts'',te] equals [ts',te']."""
    edges = GRAPHS[gi]
    T = max(t for _, _, t in edges)
    core, tti = core_and_tti(edges, 2, 1, T)
    assert core is not None
    ts_p, _ = tti
    for ts2 in range(1, ts_p + 1):
        assert core_and_tti(edges, 2, ts2, T)[1] == tti


@pytest.mark.parametrize("gi", range(5))
def test_lemma4_pou_cells_equal_upper_row(gi):
    """Cells [r,c] with r in (ts, ts'] equal their upper cells [ts,c]."""
    edges = GRAPHS[gi]
    T = max(t for _, _, t in edges)
    core, tti = core_and_tti(edges, 2, 1, T)
    assert core is not None
    ts_p = tti[0]
    for r in range(2, ts_p + 1):
        for c in range(r, T + 1):
            assert (
                core_and_tti(edges, 2, r, c)[0]
                == core_and_tti(edges, 2, 1, c)[0]
            )


@pytest.mark.parametrize("gi", range(5))
def test_lemma5_pol_cells_equal_right_cell(gi):
    """Cells [r,c] with r in (ts', te'], c in (te', te] equal [r, te']."""
    edges = SPARSE_GRAPHS[gi]
    T = max(t for _, _, t in edges)
    core, tti = core_and_tti(edges, 2, 1, T)
    assert core is not None
    ts_p, te_p = tti
    assert ts_p > 1 and te_p < T  # the trigger cell [1, T] fires PoL
    for r in range(ts_p + 1, te_p + 1):
        ref_core = core_and_tti(edges, 2, r, te_p)[0]
        for c in range(te_p + 1, T + 1):
            assert core_and_tti(edges, 2, r, c)[0] == ref_core
