"""Relational views of a temporal graph as Catalyst transformations.

A temporal graph is a DataFrame with schema ``(u long, v long, t long)``
— one row per temporal edge of the undirected multigraph. These
functions are the DataFrame counterparts of the paper's §2.1 concepts;
each is verified against DuckDB SQL by the oracle tests. ``projected``
and ``degrees`` are the building blocks of the distributed
decomposition.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def projected(edges: DataFrame, ts: int, te: int) -> DataFrame:
    """The projected graph ``G_[ts,te]``: edges with ``t`` in the window,
    self-loops dropped (degree counts distinct *other* vertices)."""
    return edges.where(
        (F.col("t") >= ts) & (F.col("t") <= te) & (F.col("u") != F.col("v"))
    )


def degrees(edges: DataFrame) -> DataFrame:
    """Distinct-neighbour degree per vertex: ``(vtx long, deg long)``.
    Both directions of every edge are hashed by ``vtx`` once, so the
    distinct and the count that follow need no shuffle of their own."""
    both = edges.select(F.col("u").alias("vtx"), F.col("v").alias("nbr")).unionAll(
        edges.select(F.col("v").alias("vtx"), F.col("u").alias("nbr"))
    )
    return (
        both.where(F.col("vtx") != F.col("nbr"))
        .repartition("vtx")
        .distinct()
        .groupBy("vtx")
        .agg(F.count("*").alias("deg"))
    )


def graph_stats(edges: DataFrame) -> dict:
    """Vertex/edge/timestamp summary used by the Table 2 harness."""
    row = edges.agg(
        F.count("*").alias("n_edges"),
        F.min("t").alias("t_min"),
        F.max("t").alias("t_max"),
        F.countDistinct("t").alias("n_ticks"),
    ).first()
    n_vertices = (
        edges.select(F.col("u").alias("x"))
        .unionAll(edges.select(F.col("v").alias("x")))
        .distinct()
        .count()
    )
    return {
        "n_vertices": n_vertices,
        "n_edges": row["n_edges"],
        "t_min": row["t_min"],
        "t_max": row["t_max"],
        "n_ticks": row["n_ticks"],
    }
