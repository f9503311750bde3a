"""Reproduce paper Figure 7 (the headline result): response time of
Baseline (iPHC-Query), TCD and OTCD on the 20 selected queries."""
import pandas as pd

from repro.experiments.tables import fig7, print_table

from _common import cli_sf


def main(*, sf: float = 1.0) -> pd.DataFrame:
    df = fig7(sf=sf)
    print_table(df, f"Figure 7 — response time comparison (sf={sf})")
    gm = (df["TCD (s)"] / df["OTCD (s)"]).prod() ** (1 / len(df))
    gb = (df["baseline (s)"] / df["OTCD (s)"]).prod() ** (1 / len(df))
    print(f"   [geomean TCD/OTCD: {gm:.1f}x, baseline/OTCD: {gb:.1f}x]")
    return df


if __name__ == "__main__":
    main(sf=cli_sf())
