"""Distributed TCQ vs the driver-side OTCD."""
import os

import pytest
from pyspark.errors import AnalysisException

from repro.core.otcd import otcd_query, tcd_query
from repro.sparkdist.tcq import distributed_tcq_pdf

from . import reference as ref
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
    # TCD evaluates every cell, so its first cell per TTI is the schedule's.
    first = {c.tti: (c.ts, c.te) for c in tcd_query(tel_of(edges, Ts, Te), k, Ts, Te).cores}
    got = distributed_tcq_pdf(spark, spark.createDataFrame(edges_pdf(edges)), k, Ts, Te)
    for row in got.itertuples(index=False):
        tti = (row.tti_s, row.tti_e)
        # Same first-inducing row; the driver may report a later column in
        # that row when pruning skipped the earlier duplicate columns, so
        # only ts (the row) is directly comparable.
        assert want[tti][0] == row.first_ts
        # A block's first column is never before the schedule's first cell,
        # whatever the block boundaries, and the cell induces the core.
        assert first[tti][0] == row.first_ts
        assert first[tti][1] >= row.first_te
        core = ref.temporal_kcore(edges, k, row.first_ts, row.first_te)
        assert (min(t for *_, t in core), max(t for *_, t in core)) == tti


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


SHORT_SPANS = [
    ([(1, 2, 5), (2, 3, 5), (1, 3, 5)], 5, 5),
    ([(1, 2, 1), (2, 3, 1), (1, 3, 2), (3, 4, 2), (2, 4, 3), (1, 4, 3)], 1, 3),
    (bursty_temporal_graph(2, n_ticks=16, burst_window=(6, 9)), 7, 8),
]


@pytest.mark.parametrize(
    "edges, Ts, Te", SHORT_SPANS, ids=["one-tick", "three-ticks", "window-7-8"]
)
def test_distributed_tcq_short_spans(spark, edges, Ts, Te):
    """Spans with fewer anchor rows than ``spark.range`` has partitions:
    the empty anchor blocks add nothing and the others match the driver."""
    k = 2
    want = otcd_query(tel_of(edges, Ts, Te), k, Ts, Te)
    assert want.cores
    got = distributed_tcq_pdf(spark, spark.createDataFrame(edges_pdf(edges)), k, Ts, Te)
    cols = ["tti_s", "tti_e", "n_vertices", "n_edges", "first_ts"]
    assert set(got[cols].itertuples(index=False, name=None)) == {
        (*c.tti, c.n_vertices, c.n_edges, c.ts) for c in want.cores
    }


@pytest.mark.parametrize("before", [None, "caller's label"])
@pytest.mark.parametrize("fails", [False, True], ids=["ok", "error"])
def test_job_descriptions_restored(spark, monkeypatch, before, fails):
    """The query labels its Spark jobs (the peel rounds, the collect of
    ``T^k``, the anchor fan-out) and leaves the caller's job description
    as it found it, also when it raises."""
    sc = spark.sparkContext
    labels = []
    set_description = sc.setJobDescription

    def spy(value):
        labels.append(value)
        set_description(value)

    sc.setJobDescription(before)
    monkeypatch.setattr(sc, "setJobDescription", spy)
    edges = spark.createDataFrame(edges_pdf(bursty_temporal_graph(0, n_ticks=12)))
    if fails:
        # The peel's first select cannot resolve ``t``: both open labels unwind.
        with pytest.raises(AnalysisException):
            distributed_tcq_pdf(spark, edges.drop("t"), 2, 1, 12)
        assert labels == ["collect T^k", "peel round 0", "collect T^k", before]
    else:
        distributed_tcq_pdf(spark, edges, 2, 1, 12)
        rounds = [x for x in labels if x and x.startswith("peel round ")]
        assert rounds == [f"peel round {i}" for i in range(len(rounds))]
        assert len(rounds) >= 2
        assert labels[0] == "collect T^k"
        assert "anchor blocks" in labels
    assert labels[-1] == before
    assert sc.getLocalProperty("spark.job.description") == before


def test_distributed_tcq_destroys_its_broadcast(spark):
    """A query leaves no file behind in the session's PySpark temp dir,
    where each broadcast pickles its value."""
    edges = bursty_temporal_graph(0, n_ticks=16, burst_window=(6, 9))
    df = spark.createDataFrame(edges_pdf(edges))
    temp = spark.sparkContext._temp_dir
    before = len(os.listdir(temp))
    got = distributed_tcq_pdf(spark, df, 2, 1, 16)
    assert len(got) > 0
    assert len(os.listdir(temp)) == before
