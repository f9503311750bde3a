"""Reproduce paper Table 2: dataset statistics.

Statistics are computed distributedly (Spark aggregations over the
generated edge DataFrames) and printed next to the paper's values.
"""
import time

from repro.datasets.temporal import DATASETS, generate
from repro.experiments.tables import DATASET_ORDER, print_table
from repro.sparkdist.graph_io import graph_stats

import pandas as pd

from _common import print_summary, run_cli


def main(spark, *, sf: float = 1.0) -> pd.DataFrame:
    started = time.perf_counter()
    rows = []
    for name in DATASET_ORDER:
        spec = DATASETS[name].scaled(sf)
        stats = graph_stats(spark.createDataFrame(generate(name, sf=sf)))
        rows.append(
            {
                "Name": name,
                "|V|": stats["n_vertices"],
                "|E|": stats["n_edges"],
                "Span(days)": (stats["t_max"] - stats["t_min"]) // spec.ticks_per_day + 1,
                "paper |V|": spec.paper_vertices,
                "paper |E|": spec.paper_edges,
                "paper Span(days)": spec.paper_span_days,
                "scale": spec.scale_note,
            }
        )
    df = pd.DataFrame(rows)
    print_table(df, f"Table 2 — datasets (sf={sf})")
    print_summary(__file__, sf, started, datasets=len(df), edges=df["|E|"].sum())
    return df


if __name__ == "__main__":
    run_cli(main)
