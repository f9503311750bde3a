"""Distributed TCQ — the paper's query scaled out with Spark.

Strategy (DESIGN.md §2, "Layering decision"):

1. The heavy initial induction ``T^k_[Ts,Te]`` runs as a distributed
   Catalyst peeling loop (:func:`repro.sparkdist.decomposition.peel`).
   The paper observes (§7.2) that graphs with billions of edges need
   "the distributed memory cluster like Spark" exactly for this working
   set; after this step the core is orders of magnitude smaller.
2. The surviving core edges are broadcast; the anchor rows of the
   subinterval schedule fan out as one ``applyInPandas`` task per
   anchor. Each task rebuilds a TEL from the broadcast arrays and runs
   the driver's OTCD over its single row (``otcd_query(..., rows=(ts,
   ts))``); within one row only PoR skips cells, since PoU and PoL prune
   later rows. Rows are independent by Theorem 1 (each row's start core
   is induced directly from ``T^k_[Ts,Te]``).
3. Cross-row duplicates (what PoU/PoL prune on a single machine) are
   removed by a distinct-by-TTI aggregation, correct by TTI Equivalence
   (Property 2).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from ..core.otcd import check_query
from .decomposition import temporal_kcore_df

RESULT_SCHEMA = (
    "ts long, te long, tti_s long, tti_e long, n_vertices long, n_edges long"
)


def distributed_tcq(
    spark: SparkSession, edges: DataFrame, k: int, Ts: int, Te: int
) -> DataFrame:
    """All distinct temporal k-cores of ``[Ts, Te]`` as a DataFrame
    ``(tti_s, tti_e, n_vertices, n_edges, first_ts, first_te)`` where
    ``first_ts/first_te`` is the schedule-order-first subinterval that
    induces the core (matching the driver OTCD's reporting).
    """
    check_query(k, Ts, Te)
    # Each anchor task builds a TEL, which takes time-sorted input (the
    # input model); row order after the peel is not guaranteed.
    core0 = temporal_kcore_df(edges, k, Ts, Te).toPandas().sort_values(
        "t", kind="stable"
    )
    if core0.empty:
        return spark.createDataFrame(
            [], "tti_s long, tti_e long, n_vertices long, n_edges long, "
                "first_ts long, first_te long",
        )
    bc = spark.sparkContext.broadcast(
        (core0["u"].tolist(), core0["v"].tolist(), core0["t"].tolist())
    )

    def anchor_row(pdf: pd.DataFrame) -> pd.DataFrame:
        # One anchor row of the schedule per task (import inside the
        # task: executors deserialise this closure without the module).
        from repro.core.otcd import otcd_query
        from repro.core.tel import TEL

        ts = int(pdf["ts"].iloc[0])
        res = otcd_query(
            TEL(*bc.value), k, Ts, Te, rows=(ts, ts), signatures=False
        )
        return pd.DataFrame(
            [(c.ts, c.te, *c.tti, c.n_vertices, c.n_edges) for c in res.cores],
            columns=["ts", "te", "tti_s", "tti_e", "n_vertices", "n_edges"],
        )

    anchors = spark.range(Ts, Te + 1).withColumnRenamed("id", "ts")
    per_row = anchors.groupBy("ts").applyInPandas(anchor_row, RESULT_SCHEMA)
    # Distinct-by-TTI; a TTI uniquely identifies the core (Property 2),
    # so min over (ts, -te) reproduces schedule order (row-major with te
    # descending means the first inducer has the smallest ts, then the
    # largest te).
    return (
        per_row.groupBy("tti_s", "tti_e")
        .agg(
            F.first("n_vertices").alias("n_vertices"),
            F.first("n_edges").alias("n_edges"),
            F.min(F.struct(F.col("ts"), (-F.col("te")).alias("neg_te")))
            .alias("first_cell"),
        )
        .select(
            "tti_s",
            "tti_e",
            "n_vertices",
            "n_edges",
            F.col("first_cell.ts").alias("first_ts"),
            (-F.col("first_cell.neg_te")).alias("first_te"),
        )
    )


def distributed_tcq_pdf(
    spark: SparkSession, edges: DataFrame, k: int, Ts: int, Te: int
) -> pd.DataFrame:
    """:func:`distributed_tcq` collected and canonically sorted."""
    pdf = distributed_tcq(spark, edges, k, Ts, Te).toPandas()
    return pdf.sort_values(["tti_s", "tti_e"]).reset_index(drop=True)
