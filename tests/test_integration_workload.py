"""Cross-algorithm integration on the actual evaluation workload:
for one query per dataset (at a reduced scale factor), the baseline,
TCD, OTCD and the one-row distributed anchor task must agree exactly."""
import pytest

from repro.core.otcd import otcd_query, tcd_query
from repro.datasets.temporal import edge_arrays
from repro.experiments.queries import selected_queries
from repro.experiments.tables import query_tel
from repro.phc.baseline import iphc_query
from repro.phc.index import build_phc_index

SF = 0.05
QIDS = (1, 6, 11, 16)
_QUERIES = {q.qid: q for q in selected_queries(sf=SF)}


@pytest.mark.parametrize("qid", QIDS)
def test_three_algorithms_agree_on_workload(qid):
    q = _QUERIES[qid]
    tel = query_tel(q, sf=SF)
    r_tcd = tcd_query(tel, q.k, q.Ts, q.Te)
    r_otcd = otcd_query(tel, q.k, q.Ts, q.Te)
    edges = list(zip(*(a.tolist() for a in edge_arrays(q.dataset, SF))))
    index = build_phc_index(edges, q.k, q.Ts, q.Te)
    r_base = iphc_query(edges, index, q.k, q.Ts, q.Te)
    assert r_tcd.keys() == r_otcd.keys() == r_base.keys()
    assert len(r_otcd.cores) >= 1


@pytest.mark.parametrize("qid", QIDS)
def test_row_sweep_kernel_covers_all_ttis(qid):
    """Union of the one-row OTCD sweeps (the distributed anchor task)
    must produce exactly OTCD's distinct TTIs."""
    q = _QUERIES[qid]
    tel = query_tel(q, sf=SF)
    want = otcd_query(tel, q.k, q.Ts, q.Te).ttis()
    got = set()
    for ts in range(q.Ts, q.Te + 1):
        got |= otcd_query(tel, q.k, q.Ts, q.Te, rows=(ts, ts)).ttis()
    assert got == want


@pytest.mark.parametrize("qid", QIDS)
def test_otcd_work_scales_with_results_not_span(qid):
    """§4.3 scalability: OTCD evaluates far fewer cells than the
    schedule holds; TCD evaluates nearly all of them."""
    q = _QUERIES[qid]
    tel = query_tel(q, sf=SF)
    r_otcd = otcd_query(tel, q.k, q.Ts, q.Te)
    r_tcd = tcd_query(tel, q.k, q.Ts, q.Te)
    assert r_otcd.stats.cells_evaluated < 0.25 * r_otcd.stats.cells_total
    assert r_otcd.stats.cells_evaluated < r_tcd.stats.cells_evaluated
