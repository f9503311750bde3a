"""Distributed TCQ — the paper's query scaled out with Spark.

Strategy (DESIGN.md §2, "Layering decision"):

1. The heavy initial induction ``T^k_[Ts,Te]`` runs as a distributed
   Catalyst peeling loop (:func:`repro.sparkdist.decomposition.peel`).
   The paper observes (§7.2) that graphs with billions of edges need
   "the distributed memory cluster like Spark" exactly for this working
   set; after this step the core is orders of magnitude smaller.
2. The surviving core edges are broadcast; the anchor rows of the
   subinterval schedule fan out as contiguous blocks, one per partition
   of ``spark.range(Ts, Te + 1)``, through ``mapInPandas``. Each task
   rebuilds a TEL from the broadcast arrays once and runs the driver's
   OTCD over its block (``otcd_query(..., rows=(lo, hi))``), so PoR, PoU
   and PoL all prune inside the block. Blocks are independent by
   Theorem 1 (each row's start core is induced directly from
   ``T^k_[Ts,Te]``); a block lacks only the pruning marks of earlier
   rows, so it evaluates a superset of the driver's cells in its rows.
3. The blocks' cores are collected to the driver, where cross-block
   duplicates (what pruning across blocks would skip on a single
   machine) are dropped by TTI, correct by TTI Equivalence (Property 2).
   OTCD's output is small (one core per TTI), so this is one pandas
   sort, not a shuffle.
"""
from __future__ import annotations

from collections.abc import Iterator

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from ..core.otcd import check_query
from .decomposition import job_description, temporal_kcore_df

COLUMNS = ["tti_s", "tti_e", "n_vertices", "n_edges", "first_ts", "first_te"]
RESULT_SCHEMA = ", ".join(f"{c} long" for c in COLUMNS)


def distributed_tcq_pdf(
    spark: SparkSession, edges: DataFrame, k: int, Ts: int, Te: int
) -> pd.DataFrame:
    """All distinct temporal k-cores of ``[Ts, Te]`` as a pandas frame
    ``(tti_s, tti_e, n_vertices, n_edges, first_ts, first_te)`` sorted by
    TTI. ``first_ts`` is the first anchor row that induces the core, as in
    the driver OTCD; ``first_te`` is the column at which its block first
    found the core in that row, which can be larger than the driver's when
    PoL marks from earlier blocks made the driver skip columns. The
    frame's ``attrs["peel_rounds"]`` counts the degree rounds of the peel.
    """
    check_query(k, Ts, Te)
    # Each anchor task builds a TEL, which takes time-sorted input (the
    # input model); row order after the peel is not guaranteed.
    with job_description(spark.sparkContext, "collect T^k"):
        kcore, rounds = temporal_kcore_df(edges, k, Ts, Te)
        core0 = kcore.toPandas().sort_values("t", kind="stable")
    if core0.empty:
        out = pd.DataFrame(columns=COLUMNS, dtype="int64")
        out.attrs["peel_rounds"] = rounds
        return out
    bc = spark.sparkContext.broadcast(tuple(core0[c].to_numpy() for c in "uvt"))

    def anchor_block(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        # One contiguous block of anchor rows per task (import inside the
        # task: executors deserialise this closure without the module).
        from repro.core.otcd import otcd_query
        from repro.core.tel import TEL

        ids = [b["id"] for b in batches if len(b)]
        if not ids:
            return
        lo, hi = int(ids[0].iat[0]), int(ids[-1].iat[-1])
        res = otcd_query(
            TEL(*bc.value), k, Ts, Te, rows=(lo, hi), signatures=False
        )
        yield pd.DataFrame(
            [(*c.tti, c.n_vertices, c.n_edges, c.ts, c.te) for c in res.cores],
            columns=COLUMNS,
        )

    with job_description(spark.sparkContext, "anchor blocks"):
        try:
            blocks = spark.range(Ts, Te + 1).mapInPandas(anchor_block, RESULT_SCHEMA)
            rows = blocks.toPandas()
        finally:  # frees the driver's pickle file and the executors' blocks
            bc.destroy()
    # Within one TTI the first inducing cell is in the smallest row. No two
    # rows tie on (TTI, first_ts): each block returns one row per TTI, and
    # blocks own disjoint anchor rows.
    out = (
        rows.sort_values(["tti_s", "tti_e", "first_ts"])
        .drop_duplicates(["tti_s", "tti_e"])
        .reset_index(drop=True)
    )
    out.attrs["peel_rounds"] = rounds
    return out
