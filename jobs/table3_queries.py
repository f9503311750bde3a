"""Reproduce paper Table 3: the 20 selected queries + result counts."""
import pandas as pd

from repro.experiments.tables import print_table, table3

from _common import cli_sf


def main(*, sf: float = 1.0) -> pd.DataFrame:
    df = table3(sf=sf)
    print_table(df, f"Table 3 — selected temporal k-core queries (sf={sf})")
    return df


if __name__ == "__main__":
    main(sf=cli_sf())
