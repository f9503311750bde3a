"""Figure 7 benchmark: Baseline (iPHC-Query) vs TCD vs OTCD response
time on the first query of each dataset (qids 1, 6, 11, 16), at SF=0.1.

The PHC-Index is built in setup (offline in the paper); only query
response time is measured. Grouping is per query so the three
algorithms appear side by side in the benchmark table.
"""
import pytest

from repro.core.otcd import otcd_query, tcd_query
from repro.experiments.queries import selected_queries
from repro.experiments.tables import query_edges, query_tel
from repro.phc.baseline import iphc_query
from repro.phc.index import build_phc_index

SF = 0.1
QIDS = (1, 6, 11, 16)
_QUERIES = {q.qid: q for q in selected_queries(sf=SF)}


def _query(qid):
    return _QUERIES[qid]


@pytest.mark.parametrize("qid", QIDS)
def test_baseline_iphc(benchmark, qid):
    q = _query(qid)
    edges = query_edges(q, sf=SF)
    index = build_phc_index(edges, q.k, q.Ts, q.Te)
    res = benchmark.pedantic(
        iphc_query, args=(edges, index, q.k, q.Ts, q.Te), rounds=3, iterations=1
    )
    benchmark.extra_info["results"] = len(res.cores)
    benchmark.group = f"q{qid}-{q.dataset}"


@pytest.mark.parametrize("qid", QIDS)
def test_tcd(benchmark, qid):
    q = _query(qid)
    tel = query_tel(q, sf=SF)
    res = benchmark.pedantic(
        tcd_query, args=(tel, q.k, q.Ts, q.Te), rounds=3, iterations=1
    )
    benchmark.extra_info["results"] = len(res.cores)
    benchmark.group = f"q{qid}-{q.dataset}"


@pytest.mark.parametrize("qid", QIDS)
def test_otcd(benchmark, qid):
    q = _query(qid)
    tel = query_tel(q, sf=SF)
    res = benchmark.pedantic(
        otcd_query, args=(tel, q.k, q.Ts, q.Te), rounds=3, iterations=1
    )
    benchmark.extra_info["results"] = len(res.cores)
    benchmark.group = f"q{qid}-{q.dataset}"
