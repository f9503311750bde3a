"""Self-tests of the DuckDB oracle and the result-record types."""
import pandas as pd
import pytest

from repro.core.records import CoreRecord, QueryResult, QueryStats, edge_signature

from .oracle import assert_equivalent


class TestOracle:
    def test_accepts_identical_results(self, spark):
        pdf = pd.DataFrame({"k": [1, 2, 2, 3], "v": [1.0, 2.0, 3.0, 4.0]})
        df = spark.createDataFrame(pdf).groupBy("k").count()
        assert_equivalent(
            df, "SELECT k, count(*) AS count FROM t GROUP BY k", t=pdf
        )

    def test_rejects_wrong_results(self, spark):
        pdf = pd.DataFrame({"k": [1, 2, 2]})
        df = spark.createDataFrame(pdf).groupBy("k").count()
        with pytest.raises(AssertionError):
            assert_equivalent(
                df, "SELECT k, count(*) + 1 AS count FROM t GROUP BY k", t=pdf
            )

    def test_rejects_column_mismatch(self, spark):
        pdf = pd.DataFrame({"k": [1]})
        df = spark.createDataFrame(pdf)
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_equivalent(df, "SELECT k AS wrong FROM t", t=pdf)

    def test_accepts_spark_dataframe_inputs(self, spark):
        pdf = pd.DataFrame({"k": [1, 1, 2]})
        sdf = spark.createDataFrame(pdf)
        got = sdf.groupBy("k").count()
        assert_equivalent(
            got, "SELECT k, count(*) AS count FROM t GROUP BY k", t=sdf
        )


class TestRecords:
    def rec(self, **kw):
        base = dict(
            ts=1, te=9, tti=(3, 7), n_vertices=4, n_edges=6,
            signature=edge_signature({1, 2, 3}),
        )
        base.update(kw)
        return CoreRecord(**base)

    def test_key_identity(self):
        assert self.rec().key() == self.rec().key()
        assert self.rec().key() != self.rec(signature=edge_signature({9})).key()

    def test_query_result_sets(self):
        res = QueryResult(cores=[self.rec(), self.rec(tti=(2, 5))])
        assert res.ttis() == {(3, 7), (2, 5)}
        assert len(res.keys()) == 2

    def test_stats_percentages(self):
        s = QueryStats(cells_total=200, por_pruned=20, pou_pruned=60,
                       pol_pruned=20)
        pct = s.pruned_pct()
        assert pct["PoR"] == 10.0
        assert pct["PoU"] == 30.0
        assert pct["Total"] == 50.0
        assert s.pruned_total() == 100

    def test_stats_empty_schedule(self):
        assert QueryStats().pruned_pct()["Total"] == 0.0
