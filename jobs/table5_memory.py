"""Reproduce paper Table 5: memory consumption of (O)TCD (TEL build)."""
import pandas as pd

from repro.experiments.tables import print_table, table5

from _common import cli_sf


def main(*, sf: float = 1.0) -> pd.DataFrame:
    df = table5(sf=sf)
    print_table(df, f"Table 5 — TEL memory consumption (sf={sf})")
    return df


if __name__ == "__main__":
    main(sf=cli_sf())
