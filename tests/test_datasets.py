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
    generate_spark,
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
        us, vs, ts = edge_arrays("collegemsg", SF)
        us2, _, _ = edge_arrays("collegemsg", SF)
        assert us is us2  # lru cache
        pdf = generate("collegemsg", sf=SF)
        assert len(us) == len(vs) == len(ts) == len(pdf)
        assert (us[0], vs[0], ts[0]) == (pdf["u"].iat[0], pdf["v"].iat[0], pdf["t"].iat[0])

    def test_edge_arrays_are_read_only(self):
        """Every query shares the cached arrays, so they are tuples: an
        append raises instead of growing the cache under later windows."""
        arrays = edge_arrays("collegemsg", SF)
        for a in arrays:
            assert isinstance(a, tuple)
            with pytest.raises(AttributeError):
                a.append(0)
        assert all(len(a) == len(generate("collegemsg", sf=SF)) for a in arrays)


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
    def test_generate_spark_roundtrip(self, spark):
        df = generate_spark(spark, "collegemsg", sf=SF)
        pdf = generate("collegemsg", sf=SF)
        assert df.count() == len(pdf)
        assert df.columns == ["u", "v", "t"]

    def test_degree_computation_vs_duckdb(self, spark):
        """Distinct-neighbour degrees, Spark vs DuckDB (oracle)."""
        df = generate_spark(spark, "collegemsg", sf=SF)
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
        df = generate_spark(spark, "email-eu", sf=SF)
        from pyspark.sql import functions as F

        got = df.groupBy("t").agg(F.count("*").alias("n"))
        assert_equivalent(
            got,
            "SELECT t, count(*) AS n FROM edges GROUP BY t",
            edges=generate("email-eu", sf=SF),
        )
