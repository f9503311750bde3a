"""Reproduce paper Table 6: <=1-day temporal 10-cores from a full-span
scan of the Youtube-like graph (the paper's "full graph scan" test)."""
import pandas as pd

from repro.experiments.tables import print_table, table6

from _common import cli_sf


def main(*, sf: float = 1.0) -> pd.DataFrame:
    df = table6(sf=sf)
    print_table(df, f"Table 6 — <=1-day temporal 10-cores on youtube (sf={sf})")
    return df


if __name__ == "__main__":
    main(sf=cli_sf())
