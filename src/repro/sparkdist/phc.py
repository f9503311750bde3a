"""Spark-parallel PHC-Index construction.

The index build (one unpruned schedule sweep over the anchors ``ts``)
is embarrassingly parallel over anchors by Theorem 1; this module fans
the anchors out as ``applyInPandas`` tasks over a broadcast of the
projected window, each running ``build_phc_index`` on its one row, and
returns the index as a DataFrame ``(ts, vtx, core_time)`` — the
distributed equivalent of :func:`repro.phc.index.build_phc_index`.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from .graph_io import projected

INDEX_SCHEMA = "ts long, vtx long, core_time long"


def build_phc_index_df(
    spark: SparkSession, edges: DataFrame, k: int, Ts: int, Te: int
) -> DataFrame:
    """Core time of every vertex for every anchor in ``[Ts, Te]``."""
    # build_phc_index takes time-sorted input (the input model); row order
    # after a filter is not guaranteed.
    window = projected(edges, Ts, Te).toPandas().sort_values("t", kind="stable")
    bc = spark.sparkContext.broadcast(
        (window["u"].tolist(), window["v"].tolist(), window["t"].tolist())
    )

    def anchor_core_times(pdf: pd.DataFrame) -> pd.DataFrame:
        from repro.phc.index import build_phc_index

        ts = int(pdf["ts"].iloc[0])
        ct = build_phc_index(list(zip(*bc.value)), k, Ts, Te, rows=(ts, ts))[ts]
        return pd.DataFrame(
            [(ts, v, t) for v, t in sorted(ct.items())],
            columns=["ts", "vtx", "core_time"],
        )

    anchors = spark.range(Ts, Te + 1).withColumnRenamed("id", "ts")
    return anchors.groupBy("ts").applyInPandas(anchor_core_times, INDEX_SCHEMA)


def collect_index(index_df: DataFrame) -> dict[int, dict[int, int]]:
    """Materialise the DataFrame index into the dict form consumed by
    :func:`repro.phc.baseline.iphc_query`."""
    out: dict[int, dict[int, int]] = {}
    for row in index_df.collect():
        out.setdefault(row["ts"], {})[row["vtx"]] = row["core_time"]
    return out
