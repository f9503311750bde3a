"""Distributed peeling (Catalyst loop) vs the brute-force reference."""
import pytest

from repro.sparkdist.decomposition import peel, temporal_kcore_df

from . import reference as ref
from .util import bursty_temporal_graph, edges_pdf, random_temporal_graph


def as_df(spark, edges):
    return spark.createDataFrame(edges_pdf(edges))


def collected(df):
    return sorted((r["u"], r["v"], r["t"]) for r in df.collect())


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("k", [2, 3])
def test_peel_matches_reference(spark, seed, k):
    edges = random_temporal_graph(seed, n_vertices=15, n_edges=80, n_ticks=6)
    got = collected(peel(as_df(spark, edges), k)[0])
    assert got == ref.temporal_kcore(edges, k, 1, 6)


@pytest.mark.parametrize("window", [(1, 20), (6, 12)])
def test_temporal_kcore_df(spark, window):
    edges = bursty_temporal_graph(5, burst_window=(7, 10))
    ts, te = window
    got = collected(temporal_kcore_df(as_df(spark, edges), 2, ts, te)[0])
    assert got == ref.temporal_kcore(edges, 2, ts, te)


def test_peel_empty_result(spark):
    edges = [(1, 2, 1), (2, 3, 2), (3, 4, 3)]  # path graph: no 2-core
    assert peel(as_df(spark, edges), 2)[0].count() == 0


def test_peel_cascade(spark):
    # A triangle plus a chain hanging off it: the chain must cascade away.
    edges = [(1, 2, 1), (2, 3, 1), (1, 3, 1), (3, 4, 1), (4, 5, 1)]
    got, rounds = peel(as_df(spark, edges), 2)
    assert collected(got) == [(1, 2, 1), (1, 3, 1), (2, 3, 1)]
    assert rounds == 3  # drops 5, then 4, then finds none

