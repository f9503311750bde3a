"""OTCD (pruning-optimized TCD): result equality with TCD / brute force,
plus the paper's claims about the pruning rules (§4.3)."""
import pytest

from repro.core import reference as ref
from repro.core.otcd import otcd_query, tcd_query
from repro.sparkdist.tcq import distributed_tcq

from .util import bursty_temporal_graph, random_temporal_graph, tel_of


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_equals_reference(seed, k):
    edges = random_temporal_graph(seed, n_vertices=10, n_edges=55, n_ticks=9)
    expect = set(ref.distinct_cores(edges, k, 1, 9))
    res = otcd_query(tel_of(edges, 1, 9), k, 1, 9, materialize=True)
    assert {c.edges for c in res.cores} == expect


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("k", [2, 3])
def test_equals_tcd(seed, k):
    edges = bursty_temporal_graph(seed, n_ticks=18, burst_window=(7, 10))
    tel = tel_of(edges)
    r_tcd = tcd_query(tel, k, 1, 18)
    r_otcd = otcd_query(tel, k, 1, 18)
    assert r_tcd.keys() == r_otcd.keys()


@pytest.mark.parametrize("seed", range(8))
def test_never_induces_duplicates(seed):
    """§4.3: each distinct temporal k-core is induced exactly once — the
    number of collected cores equals the number of distinct TTIs and no
    TTI is produced by two unpruned cells."""
    edges = bursty_temporal_graph(seed)
    res = otcd_query(tel_of(edges), 2, 1, 20)
    ttis = [c.tti for c in res.cores]
    assert len(ttis) == len(set(ttis))


@pytest.mark.parametrize("seed", range(8))
def test_does_less_work_than_tcd(seed):
    edges = bursty_temporal_graph(seed)
    tel = tel_of(edges)
    r_tcd = tcd_query(tel, 2, 1, 20)
    r_otcd = otcd_query(tel, 2, 1, 20)
    assert r_otcd.stats.cells_evaluated <= r_tcd.stats.cells_evaluated


@pytest.mark.parametrize("seed", range(8))
def test_pruned_accounting_is_consistent(seed):
    """Pruned + evaluated + empty-skipped never exceeds the schedule,
    and pruned counts are exact (no double counting)."""
    edges = bursty_temporal_graph(seed)
    res = otcd_query(tel_of(edges), 2, 1, 20)
    s = res.stats
    assert s.pruned_total() + s.cells_evaluated <= s.cells_total
    assert s.pruned_pct()["Total"] <= 100.0


def test_pruning_triggers_on_bursty_graph():
    """A tight burst inside a long window must trigger PoU (the TTI
    start jumps past the empty prefix)."""
    edges = bursty_temporal_graph(0, n_background=0, n_ticks=30,
                                  burst_window=(12, 15))
    res = otcd_query(tel_of(edges, 1, 30), 2, 1, 30)
    assert res.stats.pou_triggers >= 1
    assert res.stats.pou_pruned > 0


def test_signatures_flag():
    edges = bursty_temporal_graph(1)
    tel = tel_of(edges)
    with_sig = otcd_query(tel, 2, 1, 20)
    without = otcd_query(tel, 2, 1, 20, signatures=False)
    assert with_sig.ttis() == without.ttis()
    assert all(c.signature == frozenset() for c in without.cores)
    assert all(c.signature for c in with_sig.cores)


def test_empty_result():
    edges = [(1, 2, t) for t in range(1, 10)]  # parallel edges only
    res = otcd_query(tel_of(edges), 2, 1, 9)
    assert res.cores == []


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("window", [(3, 17), (5, 12), (9, 10)])
def test_subrange_equals_reference(seed, window):
    edges = bursty_temporal_graph(seed)
    ts, te = window
    expect = set(ref.distinct_cores(edges, 2, ts, te))
    res = otcd_query(tel_of(edges, ts, te), 2, ts, te, materialize=True)
    assert {c.edges for c in res.cores} == expect


def test_first_inducer_reported_in_schedule_order():
    """The (ts, te) recorded for a core is the first cell that induced
    it: row-major order means ts is minimal, then te maximal."""
    edges = bursty_temporal_graph(2)
    res = otcd_query(tel_of(edges), 2, 1, 20)
    for c in res.cores:
        assert c.ts <= c.tti[0]
        assert c.te >= c.tti[1]


@pytest.mark.parametrize("k, Ts, Te", [(0, 1, 9), (-1, 1, 9), (2, 9, 1)])
@pytest.mark.parametrize("query", [tcd_query, otcd_query])
def test_rejects_invalid_query(query, k, Ts, Te):
    tel = tel_of(bursty_temporal_graph(0))
    with pytest.raises(ValueError):
        query(tel, k, Ts, Te)


@pytest.mark.parametrize("k, Ts, Te", [(0, 1, 9), (-1, 1, 9), (2, 9, 1)])
def test_distributed_tcq_rejects_invalid_query(k, Ts, Te):
    # Validation runs before any Spark work, so no session is needed.
    with pytest.raises(ValueError):
        distributed_tcq(None, None, k, Ts, Te)
