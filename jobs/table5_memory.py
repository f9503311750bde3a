"""Reproduce paper Table 5: memory consumption of (O)TCD (TEL build)."""
import time

import pandas as pd

from repro.experiments.tables import print_table, table5

from _common import cli_sf, print_summary


def main(*, sf: float = 1.0) -> pd.DataFrame:
    started = time.perf_counter()
    df = table5(sf=sf)
    print_table(df, f"Table 5 — TEL memory consumption (sf={sf})")
    print_summary(__file__, sf, started, datasets=len(df), edges=df["|E|"].sum())
    return df


if __name__ == "__main__":
    main(sf=cli_sf())
