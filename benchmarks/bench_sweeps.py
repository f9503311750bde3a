"""Parameter-sweep benchmarks backing the paper's scalability claims:

* Figure 9's shape — (O)TCD response time *decreases* as k grows,
  because the result scale shrinks (against the non-temporal intuition).
* Figure 12's shape — OTCD grows mildly with the query span while TCD
  grows quadratically.

Run at SF=0.1 on the CollegeMsg-like graph (the paper sweeps one typical
query per graph).
"""
import pytest

from repro.core.otcd import otcd_query, tcd_query
from repro.datasets.temporal import DATASETS
from repro.experiments.queries import selected_queries
from repro.experiments.tables import query_tel

SF = 0.1
_Q1 = selected_queries(sf=SF)[0]  # collegemsg anchor query


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_otcd_impact_of_k(benchmark, k):
    tel = query_tel(_Q1, sf=SF)
    res = benchmark.pedantic(
        otcd_query, args=(tel, k, _Q1.Ts, _Q1.Te), rounds=3, iterations=1
    )
    benchmark.group = "impact-of-k (OTCD)"
    benchmark.extra_info["results"] = len(res.cores)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_tcd_impact_of_k(benchmark, k):
    tel = query_tel(_Q1, sf=SF)
    benchmark.pedantic(
        tcd_query, args=(tel, k, _Q1.Ts, _Q1.Te), rounds=2, iterations=1
    )
    benchmark.group = "impact-of-k (TCD)"


def _span_window(days):
    spec = DATASETS[_Q1.dataset].scaled(SF)
    span = days * spec.ticks_per_day
    center = (_Q1.Ts + _Q1.Te) // 2
    Ts = max(1, center - span // 2)
    return Ts, min(spec.n_ticks, Ts + span - 1)


@pytest.mark.parametrize("days", [1, 2, 3, 4])
def test_otcd_impact_of_span(benchmark, days):
    from repro.core.tcd import window_tel
    from repro.datasets.temporal import edge_arrays

    Ts, Te = _span_window(days)
    us, vs, ts = edge_arrays(_Q1.dataset, SF)
    tel = window_tel(us, vs, ts, Ts, Te)
    res = benchmark.pedantic(
        otcd_query, args=(tel, _Q1.k, Ts, Te), rounds=3, iterations=1
    )
    benchmark.group = "impact-of-span (OTCD)"
    benchmark.extra_info["results"] = len(res.cores)


@pytest.mark.parametrize("days", [1, 2, 3, 4])
def test_tcd_impact_of_span(benchmark, days):
    from repro.core.tcd import window_tel
    from repro.datasets.temporal import edge_arrays

    Ts, Te = _span_window(days)
    us, vs, ts = edge_arrays(_Q1.dataset, SF)
    tel = window_tel(us, vs, ts, Ts, Te)
    benchmark.pedantic(
        tcd_query, args=(tel, _Q1.k, Ts, Te), rounds=2, iterations=1
    )
    benchmark.group = "impact-of-span (TCD)"
