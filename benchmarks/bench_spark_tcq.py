"""Distributed-path benchmarks at SF=0.1: the Catalyst peeling loop and
the full fan-out TCQ (anchor blocks via mapInPandas + distinct-by-TTI)."""
import pytest

from repro.datasets.temporal import generate_spark
from repro.experiments.queries import selected_queries
from repro.sparkdist.decomposition import temporal_kcore_df
from repro.sparkdist.tcq import distributed_tcq_pdf

SF = 0.1
_Q = {q.dataset: q for q in selected_queries(sf=SF)}


@pytest.mark.parametrize("dataset", ["collegemsg", "mathoverflow"])
def test_distributed_peel(benchmark, spark, dataset):
    q = _Q[dataset]
    edges = generate_spark(spark, dataset, sf=SF)

    def run():
        return temporal_kcore_df(edges, q.k, q.Ts, q.Te).count()

    n = benchmark.pedantic(run, rounds=2, iterations=1)
    benchmark.group = "distributed peel"
    benchmark.extra_info["core_edges"] = n


@pytest.mark.parametrize("dataset", ["collegemsg"])
def test_distributed_tcq(benchmark, spark, dataset):
    q = _Q[dataset]
    edges = generate_spark(spark, dataset, sf=SF)

    def run():
        return distributed_tcq_pdf(spark, edges, q.k, q.Ts, q.Te)

    pdf = benchmark.pedantic(run, rounds=2, iterations=1)
    benchmark.group = "distributed TCQ"
    benchmark.extra_info["results"] = len(pdf)
