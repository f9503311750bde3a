"""Distributed TCQ and PHC-Index build vs the driver-side algorithms."""
import pytest

from repro.core import reference as ref
from repro.core.otcd import otcd_query
from repro.phc.baseline import iphc_query
from repro.phc.index import build_phc_index
from repro.sparkdist.phc import build_phc_index_df, collect_index
from repro.sparkdist.tcq import distributed_tcq_pdf

from .util import SELF_LOOP_GRAPHS, bursty_temporal_graph, edges_pdf, tel_of


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_distributed_tcq_matches_otcd(spark, seed):
    edges = bursty_temporal_graph(seed, n_ticks=16, burst_window=(6, 9))
    k, Ts, Te = 2, 1, 16
    want = otcd_query(tel_of(edges, Ts, Te), k, Ts, Te)
    got = distributed_tcq_pdf(spark, spark.createDataFrame(edges_pdf(edges)), k, Ts, Te)
    got_ttis = set(zip(got["tti_s"], got["tti_e"]))
    assert got_ttis == want.ttis()
    want_sizes = {(c.tti, c.n_vertices, c.n_edges) for c in want.cores}
    got_sizes = {
        ((s, e), nv, ne)
        for s, e, nv, ne in zip(
            got["tti_s"], got["tti_e"], got["n_vertices"], got["n_edges"]
        )
    }
    assert got_sizes == want_sizes


def test_distributed_tcq_first_cell_schedule_order(spark):
    edges = bursty_temporal_graph(3, n_ticks=14, burst_window=(5, 8))
    k, Ts, Te = 2, 1, 14
    want = {c.tti: (c.ts, c.te) for c in otcd_query(tel_of(edges, Ts, Te), k, Ts, Te).cores}
    got = distributed_tcq_pdf(spark, spark.createDataFrame(edges_pdf(edges)), k, Ts, Te)
    for row in got.itertuples(index=False):
        tti = (row.tti_s, row.tti_e)
        # Same first-inducing row; the driver may report a later column in
        # that row when pruning skipped the earlier duplicate columns, so
        # only ts (the row) is directly comparable.
        assert want[tti][0] == row.first_ts


def test_distributed_tcq_empty(spark):
    edges = [(1, 2, 1), (2, 3, 2)]
    got = distributed_tcq_pdf(spark, spark.createDataFrame(edges_pdf(edges)), 2, 1, 2)
    assert got.empty


@pytest.mark.parametrize("seed", [0, 1])
def test_distributed_tcq_on_reverse_time_order(spark, seed):
    """A frame whose rows run backwards in time: the broadcast core is
    sorted by time before the anchor tasks build their TELs."""
    edges = bursty_temporal_graph(seed, n_ticks=16, burst_window=(6, 9))
    k, Ts, Te = 2, 1, 16
    want = otcd_query(tel_of(edges, Ts, Te), k, Ts, Te)
    frame = spark.createDataFrame(edges_pdf(edges[::-1])).coalesce(1)
    got = distributed_tcq_pdf(spark, frame, k, Ts, Te)
    assert set(zip(got["tti_s"], got["tti_e"], got["n_vertices"], got["n_edges"])) == {
        (*c.tti, c.n_vertices, c.n_edges) for c in want.cores
    }
    assert {(c.tti, c.ts) for c in want.cores} == set(
        zip(zip(got["tti_s"], got["tti_e"]), got["first_ts"])
    )


@pytest.mark.parametrize("gi", range(len(SELF_LOOP_GRAPHS)))
@pytest.mark.parametrize("k", [1, 2])
def test_distributed_tcq_ignores_self_loops(spark, gi, k):
    """Spark agrees with the driver and the reference on self-loops."""
    edges = SELF_LOOP_GRAPHS[gi]
    Ts, Te = 1, edges[-1][2]
    want = otcd_query(tel_of(edges, Ts, Te), k, Ts, Te)
    assert want.ttis() == set(ref.distinct_cores(edges, k, Ts, Te).values())
    got = distributed_tcq_pdf(spark, spark.createDataFrame(edges_pdf(edges)), k, Ts, Te)
    assert set(zip(got["tti_s"], got["tti_e"], got["n_vertices"], got["n_edges"])) == {
        (*c.tti, c.n_vertices, c.n_edges) for c in want.cores
    }


def test_distributed_phc_index_matches_driver(spark):
    edges = bursty_temporal_graph(4, n_ticks=12, burst_window=(5, 8))
    k, Ts, Te = 2, 1, 12
    want = build_phc_index(edges, k, Ts, Te)
    got = collect_index(
        build_phc_index_df(spark, spark.createDataFrame(edges_pdf(edges)), k, Ts, Te)
    )
    want = {ts: m for ts, m in want.items() if m}  # drop empty anchors
    assert got == want


def test_distributed_index_drives_baseline(spark):
    """End-to-end: Spark-built index feeding iPHC-Query equals OTCD."""
    edges = bursty_temporal_graph(5, n_ticks=12, burst_window=(4, 7))
    k, Ts, Te = 2, 1, 12
    index = collect_index(
        build_phc_index_df(spark, spark.createDataFrame(edges_pdf(edges)), k, Ts, Te)
    )
    res_b = iphc_query(edges, index, k, Ts, Te)
    res_o = otcd_query(tel_of(edges, Ts, Te), k, Ts, Te)
    assert res_b.keys() == res_o.keys()
