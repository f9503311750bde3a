"""Catalyst graph views vs DuckDB SQL (every result via the oracle)."""
import pytest
from pyspark.sql import functions as F

from repro.sparkdist.graph_io import (
    degrees,
    graph_stats,
    projected,
)

from .oracle import assert_equivalent
from .util import edges_pdf, random_temporal_graph


@pytest.fixture(scope="module")
def graph(spark):
    edges = random_temporal_graph(42, n_vertices=30, n_edges=300, n_ticks=20)
    pdf = edges_pdf(edges)
    return spark.createDataFrame(pdf), pdf


@pytest.mark.parametrize("window", [(1, 20), (5, 12), (8, 8), (19, 20)])
def test_projected(graph, window):
    df, pdf = graph
    ts, te = window
    assert_equivalent(
        projected(df, ts, te),
        f"SELECT u, v, t FROM edges WHERE t BETWEEN {ts} AND {te} AND u <> v",
        edges=pdf,
    )


def test_projected_drops_self_loops(spark):
    pdf = edges_pdf([(1, 1, 1), (1, 2, 1), (2, 2, 2), (2, 3, 2), (3, 3, 9)])
    assert_equivalent(
        projected(spark.createDataFrame(pdf), 1, 2),
        "SELECT u, v, t FROM edges WHERE t BETWEEN 1 AND 2 AND u <> v",
        edges=pdf,
    )


def test_projected_empty_window(graph):
    df, _ = graph
    assert projected(df, 100, 200).count() == 0


def test_degrees(graph):
    df, pdf = graph
    assert_equivalent(
        degrees(df),
        """
        WITH pairs AS (
            SELECT DISTINCT least(u, v) AS a, greatest(u, v) AS b
            FROM edges WHERE u <> v
        ),
        incident AS (
            SELECT a AS vtx, b AS nbr FROM pairs
            UNION ALL SELECT b, a FROM pairs
        )
        SELECT vtx, count(*) AS deg FROM incident GROUP BY vtx
        """,
        edges=pdf,
    )


def test_degrees_ignore_parallel_edges(spark):
    pdf = edges_pdf([(1, 2, 1), (1, 2, 2), (2, 1, 3), (2, 3, 1)])
    df = spark.createDataFrame(pdf)
    got = {r["vtx"]: r["deg"] for r in degrees(df).collect()}
    assert got == {1: 1, 2: 2, 3: 1}


def test_graph_stats(graph):
    df, pdf = graph
    stats = graph_stats(df)
    assert stats["n_edges"] == len(pdf)
    assert stats["t_min"] == pdf["t"].min()
    assert stats["t_max"] == pdf["t"].max()
    assert stats["n_ticks"] == pdf["t"].nunique()
    verts = set(pdf["u"]) | set(pdf["v"])
    assert stats["n_vertices"] == len(verts)


def test_projected_composes_with_aggregation(graph):
    """A projected-window aggregate matches DuckDB end to end."""
    df, pdf = graph
    got = (
        projected(df, 5, 15)
        .groupBy("u")
        .agg(F.count("*").alias("n"), F.max("t").alias("last_t"))
    )
    assert_equivalent(
        got,
        """SELECT u, count(*) AS n, max(t) AS last_t
           FROM edges WHERE t BETWEEN 5 AND 15 GROUP BY u""",
        edges=pdf,
    )
