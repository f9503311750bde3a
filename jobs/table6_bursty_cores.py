"""Reproduce paper Table 6: <=1-day temporal 10-cores from a full-span
scan of the Youtube-like graph (the paper's "full graph scan" test)."""
import time

import pandas as pd

from repro.experiments.tables import print_table, table6

from _common import cli_sf, print_summary


def main(*, sf: float = 1.0) -> pd.DataFrame:
    started = time.perf_counter()
    df = table6(sf=sf)
    print_table(df, f"Table 6 — <=1-day temporal 10-cores on youtube (sf={sf})")
    print_summary(
        __file__, sf, started, rows=len(df), cores=df.attrs["total_cores"],
        one_day_cores=df.attrs["one_day_cores"],
    )
    return df


if __name__ == "__main__":
    main(sf=cli_sf())
