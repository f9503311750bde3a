"""Reproduce paper Table 4: pruning-rule triggers and pruned-cell %."""
import time

import pandas as pd

from repro.experiments.tables import print_table, table4

from _common import cli_sf, print_summary


def main(*, sf: float = 1.0) -> pd.DataFrame:
    started = time.perf_counter()
    df = table4(sf=sf)
    print_table(df, f"Table 4 — effect of pruning rules (sf={sf})")
    print_summary(__file__, sf, started, queries=len(df))
    return df


if __name__ == "__main__":
    main(sf=cli_sf())
