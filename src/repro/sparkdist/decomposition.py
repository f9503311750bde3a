"""Distributed temporal core decomposition as a Catalyst peeling loop.

The TCD *operation* (paper Algorithm 4) at cluster scale: truncation is
a filter; decomposition repeatedly drops vertices whose distinct-
neighbour degree is below ``k`` together with their incident edges,
until a fixpoint. Each round computes degrees once (a handful of
shuffles); lineage is truncated with ``localCheckpoint`` so the plan
does not grow with the round count (a known requirement for iterative
DataFrame graph algorithms).
"""
from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from itertools import count

from pyspark import SparkContext
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .graph_io import degrees, projected


@contextmanager
def job_description(sc: SparkContext, text: str) -> Iterator[None]:
    """Label the Spark jobs started inside with ``text``; the caller's
    description comes back on exit, also on error. Job groups are left
    alone."""
    prev = sc.getLocalProperty("spark.job.description")
    sc.setJobDescription(text)
    try:
        yield
    finally:
        sc.setJobDescription(prev)


def peel(edges: DataFrame, k: int) -> tuple[DataFrame, int]:
    """Edges of the k-core of the (already projected) temporal graph, and
    the number of degree rounds that found them.

    Iteratively removes all vertices with degree < k at once (standard
    synchronous peeling — same fixpoint as the sequential algorithm).
    Each round checkpoints the vertices of degree < k, then tests them for
    emptiness. A round that finds one deletes at least one of its edges,
    so the loop ends; the last round finds none. The edges are an empty
    DataFrame with the same schema if no k-core exists. Round ``i``'s jobs
    are described ``peel round i`` (round 0 materialises the input).
    """
    sc = edges.sparkSession.sparkContext
    with job_description(sc, "peel round 0"):
        cur = edges.select("u", "v", "t").localCheckpoint(eager=True)
        for i in count(1):
            sc.setJobDescription(f"peel round {i}")
            bad = (
                degrees(cur).where(F.col("deg") < k).select("vtx")
                .localCheckpoint(eager=True)
            )
            if bad.isEmpty():
                return cur, i
            cur = (
                cur.join(bad.withColumnRenamed("vtx", "u"), "u", "left_anti")
                .join(bad.withColumnRenamed("vtx", "v"), "v", "left_anti")
                .select("u", "v", "t")
                .localCheckpoint(eager=True)
            )


def temporal_kcore_df(
    edges: DataFrame, k: int, ts: int, te: int
) -> tuple[DataFrame, int]:
    """Distributed TCD operation: ``T^k_[ts,te]`` as an edge DataFrame and
    its peel rounds (truncation via :func:`projected`, then :func:`peel`)."""
    return peel(projected(edges, ts, te), k)
