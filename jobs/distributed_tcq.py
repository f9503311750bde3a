"""Distributed TCQ demo: run the Spark fan-out TCQ on one query per
dataset and check it returns the same distinct cores (by TTI) as the
driver-side OTCD. This is the cluster path the paper's §7.2 points to
for graphs whose TEL exceeds single-node memory."""
import time

import pandas as pd

from repro.core.otcd import otcd_query
from repro.datasets.temporal import generate
from repro.experiments.queries import selected_queries
from repro.experiments.tables import print_table, query_tel
from repro.sparkdist.tcq import distributed_tcq_pdf

from _common import print_summary, run_cli


def main(spark, *, sf: float = 1.0) -> pd.DataFrame:
    started = time.perf_counter()
    rows = []
    picked = {}
    for q in selected_queries(sf=sf):
        picked.setdefault(q.dataset, q)  # first query of each dataset
    for q in picked.values():
        edges_df = spark.createDataFrame(generate(q.dataset, sf=sf))
        got = distributed_tcq_pdf(spark, edges_df, q.k, q.Ts, q.Te)
        want = otcd_query(query_tel(q, sf=sf), q.k, q.Ts, q.Te)
        ok = set(zip(got["tti_s"], got["tti_e"])) == want.ttis()
        rows.append(
            {
                "id": q.qid,
                "G": q.dataset,
                "k": q.k,
                "distributed #": len(got),
                "driver OTCD #": len(want.cores),
                "TTIs match": ok,
                "peel rounds": got.attrs["peel_rounds"],
            }
        )
    df = pd.DataFrame(rows)
    print_table(df, f"Distributed TCQ vs driver OTCD (sf={sf})")
    print_summary(
        __file__, sf, started, queries=len(df), cores=df["distributed #"].sum(),
        peel_rounds=df["peel rounds"].sum(),
    )
    assert df["TTIs match"].all(), "distributed TCQ disagrees with OTCD"
    return df


if __name__ == "__main__":
    run_cli(main)
