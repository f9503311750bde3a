"""Synthetic dataset substrate: determinism, structure, Spark/oracle
integration (DESIGN.md §3 substitution properties)."""
import numpy as np
import pandas as pd
import pytest

from repro.datasets.temporal import (
    DATASETS,
    burst_schedule,
    edge_arrays,
    generate,
    tick_to_date,
)
from repro.sparkdist.graph_io import degrees

from .oracle import assert_equivalent

ALL = sorted(DATASETS)
SF = 0.01  # tiny instances for structural tests


class TestSpecs:
    @pytest.mark.parametrize("name", ALL)
    def test_seven_paper_datasets_exist(self, name):
        spec = DATASETS[name]
        assert spec.paper_span_days > 0
        assert spec.n_ticks == spec.span_days * spec.ticks_per_day

    def test_exactly_seven(self):
        assert len(DATASETS) == 7

    @pytest.mark.parametrize("name", ALL)
    def test_scaled_keeps_span(self, name):
        spec = DATASETS[name]
        small = spec.scaled(0.01)
        assert small.n_ticks == spec.n_ticks
        assert small.n_edges <= spec.n_edges
        assert small.n_vertices <= spec.n_vertices

    def test_scaled_identity_at_full(self):
        assert DATASETS["youtube"].scaled(1.0) is DATASETS["youtube"]

    @pytest.mark.parametrize("sf", [0, -0.5, 1.5, 2, float("nan"), float("inf")])
    def test_scaled_rejects_factor_outside_unit_interval(self, sf):
        """Above 1 the full graph would run under a larger label, and at
        or below 0 the floors would give a 200-edge graph."""
        with pytest.raises(ValueError, match="scale factor"):
            DATASETS["youtube"].scaled(sf)


class TestGeneration:
    @pytest.mark.parametrize("name", ALL)
    def test_deterministic(self, name):
        a = generate(name, sf=SF)
        b = generate(name, sf=SF)
        pd.testing.assert_frame_equal(a, b)

    @pytest.mark.parametrize("name", ALL)
    def test_edge_count_and_bounds(self, name):
        spec = DATASETS[name].scaled(SF)
        pdf = generate(name, sf=SF)
        assert len(pdf) == spec.n_edges
        assert pdf["t"].min() >= 1
        assert pdf["t"].max() <= spec.n_ticks
        assert pdf["u"].between(0, spec.n_vertices - 1).all()
        assert pdf["v"].between(0, spec.n_vertices - 1).all()

    @pytest.mark.parametrize("name", ALL)
    def test_no_self_loops(self, name):
        pdf = generate(name, sf=SF)
        assert (pdf["u"] != pdf["v"]).all()

    @pytest.mark.parametrize("name", ALL)
    def test_sorted_by_time(self, name):
        pdf = generate(name, sf=SF)
        assert pdf["t"].is_monotonic_increasing

    @pytest.mark.parametrize("name", ALL)
    def test_bursts_are_dense(self, name):
        """Inside each burst window the edge rate must far exceed the
        background rate — this is what guarantees temporal k-cores."""
        spec = DATASETS[name].scaled(SF)
        pdf = generate(name, sf=SF)
        sched = burst_schedule(spec)
        row = sched.loc[sched["edges"].idxmax()]
        lo = int(row["center"]) - int(row["width"])
        hi = int(row["center"]) + int(row["width"])
        in_burst = ((pdf["t"] >= lo) & (pdf["t"] <= hi)).sum()
        width = hi - lo + 1
        background_rate = len(pdf) / spec.n_ticks
        assert in_burst / width > 5 * background_rate

    def test_edge_arrays_cached_and_consistent(self):
        """The arrays are the cached frame's columns: one copy of the data."""
        pdf = generate("collegemsg", sf=SF)
        arrays = edge_arrays("collegemsg", SF)
        again = edge_arrays("collegemsg", SF)
        for c, a, b in zip("uvt", arrays, again):
            assert np.shares_memory(a, pdf[c].to_numpy())
            assert np.shares_memory(a, b)
            np.testing.assert_array_equal(a, pdf[c])
        full, again = generate("collegemsg"), generate("collegemsg", sf=1.0)
        for c in "uvt":
            assert np.shares_memory(full[c].to_numpy(), again[c].to_numpy())

    def test_column_assignment_stays_in_its_frame(self):
        """Each call returns its own frame over the shared columns, so
        replacing or adding a column leaves every later caller's data alone."""
        before = [a.copy() for a in edge_arrays("collegemsg", SF)]
        pdf = generate("collegemsg", sf=SF)
        pdf["u"] = 0
        pdf["w"] = 1
        later = generate("collegemsg", sf=SF)
        assert list(later.columns) == ["u", "v", "t"]
        for c, a, b in zip("uvt", before, edge_arrays("collegemsg", SF)):
            np.testing.assert_array_equal(later[c], a)
            np.testing.assert_array_equal(b, a)

    def test_edge_arrays_are_read_only(self):
        """Every query shares the cached arrays, so a write raises instead
        of changing the graph under later windows."""
        for a in edge_arrays("collegemsg", SF):
            assert isinstance(a, np.ndarray) and a.dtype == np.int64
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
        pdf = generate("collegemsg", sf=SF)
        with pytest.raises(ValueError, match="read-only"):
            pdf.iloc[0, 0] = 0
        with pytest.raises(ValueError, match="read-only"):
            pdf.loc[0, "t"] = 0


class TestBurstSchedule:
    @pytest.mark.parametrize("name", ALL)
    def test_schedule_shape(self, name):
        spec = DATASETS[name].scaled(SF)
        sched = burst_schedule(spec)
        assert len(sched) == spec.n_bursts
        assert (sched["center"] >= 1).all()
        assert (sched["center"] <= spec.n_ticks).all()
        assert sched["edges"].sum() == int(spec.n_edges * spec.burst_fraction)

    @pytest.mark.parametrize("name", ALL)
    def test_schedule_deterministic(self, name):
        spec = DATASETS[name].scaled(SF)
        pd.testing.assert_frame_equal(burst_schedule(spec), burst_schedule(spec))

    def test_centers_spread(self):
        spec = DATASETS["youtube"]
        c = burst_schedule(spec)["center"].to_numpy()
        assert (np.diff(c) > 0).all()  # strictly increasing (well spread)


class TestTickDates:
    def test_base_date(self):
        spec = DATASETS["youtube"]
        assert tick_to_date(spec, 1) == "Jul 01 2006"

    def test_one_day_later(self):
        spec = DATASETS["youtube"]
        assert tick_to_date(spec, 1 + spec.ticks_per_day) == "Jul 02 2006"


class TestSparkIntegration:
    def test_spark_roundtrip(self, spark):
        df = spark.createDataFrame(generate("collegemsg", sf=SF))
        pdf = generate("collegemsg", sf=SF)
        assert df.count() == len(pdf)
        assert df.columns == ["u", "v", "t"]

    def test_degree_computation_vs_duckdb(self, spark):
        """Distinct-neighbour degrees, Spark vs DuckDB (oracle)."""
        df = spark.createDataFrame(generate("collegemsg", sf=SF))
        got = degrees(df)
        assert_equivalent(
            got,
            """
            WITH pairs AS (
                SELECT DISTINCT least(u, v) AS a, greatest(u, v) AS b
                FROM edges WHERE u <> v
            ),
            incident AS (
                SELECT a AS vtx, b AS nbr FROM pairs
                UNION ALL
                SELECT b AS vtx, a AS nbr FROM pairs
            )
            SELECT vtx, count(*) AS deg FROM incident GROUP BY vtx
            """,
            edges=generate("collegemsg", sf=SF),
        )

    def test_timestamp_histogram_vs_duckdb(self, spark):
        df = spark.createDataFrame(generate("email-eu", sf=SF))
        from pyspark.sql import functions as F

        got = df.groupBy("t").agg(F.count("*").alias("n"))
        assert_equivalent(
            got,
            "SELECT t, count(*) AS n FROM edges GROUP BY t",
            edges=generate("email-eu", sf=SF),
        )
