"""OTCD (pruning-optimized TCD): result equality with TCD / brute force,
plus the paper's claims about the pruning rules (§4.3)."""
import numpy as np
import pytest

from repro.core.otcd import otcd_query, tcd_query
from repro.phc.baseline import iphc_query
from repro.phc.index import build_phc_index
from repro.sparkdist.tcq import distributed_tcq_pdf

from . import reference as ref
from .util import (
    bursty_temporal_graph, core_edges, random_temporal_graph, sig_ids, tel_of,
)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_equals_reference(seed, k):
    edges = random_temporal_graph(seed, n_vertices=10, n_edges=55, n_ticks=9)
    expect = set(ref.distinct_cores(edges, k, 1, 9))
    res = otcd_query(tel_of(edges, 1, 9), k, 1, 9)
    assert {core_edges(edges, c) for c in res.cores} == expect


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
    assert all(sig_ids(c.signature) == frozenset() for c in without.cores)
    assert all(sig_ids(c.signature) for c in with_sig.cores)


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
    res = otcd_query(tel_of(edges, ts, te), 2, ts, te)
    assert {core_edges(edges, c) for c in res.cores} == expect


@pytest.mark.parametrize("window", [(1, 20), (12, 20), (5, 9)])
def test_rows_of_the_whole_range_equal_the_default(window):
    edges = bursty_temporal_graph(0)
    Ts, Te = window
    tel = tel_of(edges)
    assert otcd_query(tel, 2, Ts, Te, rows=(Ts, Te)) == otcd_query(tel, 2, Ts, Te)


@pytest.mark.parametrize("rows", [(5, 20), (12, 21), (0, 11), (15, 14)])
def test_rejects_rows_outside_the_range(rows):
    """A row before ``Ts`` would start the chain at ``[lo, Te]`` and
    return cores outside ``[Ts, Te]``; an empty or later range is
    rejected too."""
    tel = tel_of(bursty_temporal_graph(0))
    with pytest.raises(ValueError, match="rows"):
        otcd_query(tel, 2, 12, 20, rows=rows)


def test_first_inducer_reported_in_schedule_order():
    """The (ts, te) recorded for a core is the first cell that induced
    it: row-major order means ts is minimal, then te maximal."""
    edges = bursty_temporal_graph(2)
    res = otcd_query(tel_of(edges), 2, 1, 20)
    for c in res.cores:
        assert c.ts <= c.tti[0]
        assert c.te >= c.tti[1]


# Outside the input model: k < 1, Ts > Te, and non-integer k, Ts or Te
# (a fractional k would peel wrongly, a fractional bound breaks range()).
INVALID = [(0, 1, 9), (-1, 1, 9), (2, 9, 1), (2.5, 1, 9), (2, 1.5, 9), (2, 1, 12.0)]
DRIVER_QUERIES = [tcd_query, otcd_query, build_phc_index, iphc_query]


def _driver_args(query, edges):
    # The baseline takes the edge list (and an index); the rest a TEL.
    args = {build_phc_index: (edges,), iphc_query: (edges, {})}
    return args.get(query, (tel_of(edges),))


@pytest.mark.parametrize("k, Ts, Te", INVALID)
@pytest.mark.parametrize("query", DRIVER_QUERIES)
def test_rejects_invalid_query(query, k, Ts, Te):
    edges = bursty_temporal_graph(0)
    with pytest.raises(ValueError):
        query(*_driver_args(query, edges), k, Ts, Te)


@pytest.mark.parametrize("query", [tcd_query, otcd_query, build_phc_index])
def test_accepts_numpy_integers(query):
    edges = bursty_temporal_graph(0)
    args = _driver_args(query, edges)
    got = query(*args, np.int64(2), np.int64(1), np.int64(20))
    assert got == query(*args, 2, 1, 20)


def test_iphc_accepts_numpy_integers():
    edges = bursty_temporal_graph(0)
    index = build_phc_index(edges, 2, 1, 20)
    got = iphc_query(edges, index, np.int64(2), np.int64(1), np.int64(20))
    assert got.keys() == iphc_query(edges, index, 2, 1, 20).keys()


@pytest.mark.parametrize("k, Ts, Te", INVALID)
def test_distributed_tcq_rejects_invalid_query(k, Ts, Te):
    # Validation runs before any Spark work, so no session is needed.
    with pytest.raises(ValueError):
        distributed_tcq_pdf(None, None, k, Ts, Te)
