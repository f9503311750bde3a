"""Experiment harnesses (queries + tableN functions) at tiny scale."""
import pandas as pd
import pytest

from repro.core.otcd import otcd_query
from repro.datasets.temporal import DATASETS
from repro.experiments.queries import PAPER_RESULT_COUNTS, selected_queries
from repro.experiments.tables import (
    fig7,
    query_tel,
    table3,
    table4,
    table5,
    table6,
)

SF = 0.02


class TestQueries:
    def test_twenty_queries_five_per_dataset(self):
        qs = selected_queries(sf=SF)
        assert len(qs) == 20
        by_ds = {}
        for q in qs:
            by_ds.setdefault(q.dataset, []).append(q)
        assert {len(v) for v in by_ds.values()} == {5}
        assert set(by_ds) == {
            "collegemsg", "email-eu", "mathoverflow", "stackoverflow",
        }

    def test_k_values_follow_paper(self):
        ks = {q.dataset: q.k for q in selected_queries(sf=SF)}
        assert ks == {
            "collegemsg": 2, "email-eu": 3,
            "mathoverflow": 2, "stackoverflow": 2,
        }

    def test_windows_inside_graph_span(self):
        for q in selected_queries(sf=SF):
            spec = DATASETS[q.dataset].scaled(SF)
            assert 1 <= q.Ts <= q.Te <= spec.n_ticks
            assert q.Te - q.Ts + 1 <= 3 * spec.ticks_per_day

    def test_ids_sequential(self):
        qs = selected_queries(sf=SF)
        assert [q.qid for q in qs] == list(range(1, 21))

    def test_deterministic(self):
        assert selected_queries(sf=SF) == selected_queries(sf=SF)

    @pytest.mark.parametrize("sf", [SF, 0.1])
    def test_queries_are_valid(self, sf):
        """The paper requires every selected query to return at least
        one core ("verified to be valid"); bursts guarantee it."""
        for q in selected_queries(sf=sf):
            res = otcd_query(query_tel(q, sf=sf), q.k, q.Ts, q.Te)
            assert len(res.cores) >= 1, f"query {q.qid} has no results"

    def test_paper_counts_table_has_twenty(self):
        assert len(PAPER_RESULT_COUNTS) == 20


class TestTables:
    def test_table3_counts_positive(self):
        df = table3(sf=SF)
        assert len(df) == 20
        assert (df["result #"] >= 1).all()
        assert list(df["paper result #"]) == PAPER_RESULT_COUNTS

    def test_table4_percentages(self):
        df = table4(sf=SF)
        assert len(df) == 4
        assert (df["Total %"] <= 100).all()
        assert (df["Total %"] >= 0).all()
        # rows are the first query of each dataset
        assert list(df["id"]) == [1, 6, 11, 16]
        # percentages add up (rules never double-count)
        total = df["PoR %"] + df["PoU %"] + df["PoL %"]
        assert (abs(total - df["Total %"]) < 0.05).all()

    def test_table5_memory_positive_and_ordered(self):
        df = table5(sf=SF)
        assert len(df) == 7
        assert (df["TEL peak (MB)"] > 0).all()

    def test_table6_structure(self):
        df = table6(sf=SF, k=4)  # smaller k: scaled bursts are sparser
        assert df.attrs["total_cores"] > 0
        if not df.empty:
            assert set(df.columns) == {"Date", "|V|", "|E|"}
            assert len(df) <= 9

    def test_fig7_runs_and_algorithms_agree(self):
        # fig7 itself asserts the three algorithms return identical
        # cores; wall-clock ordering is too noisy at sf=0.02 to assert
        # here (the deterministic work-count ordering is covered by
        # tests/test_integration_workload.py).
        df = fig7(sf=SF, qids=(1, 11))
        assert len(df) == 2
        assert (df["results"] >= 1).all()
        assert (df["OTCD (s)"] > 0).all()


class TestJobs:
    """Each ``jobs/`` entrypoint runs end-to-end at tiny scale; only the
    Spark jobs get a session."""

    @pytest.fixture(autouse=True)
    def _jobs_on_path(self, monkeypatch):
        import sys
        from pathlib import Path

        monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "jobs"))
        # jobs import each other's helpers via the jobs dir
        for m in list(sys.modules):
            if m.startswith("_common") or m.startswith("table") or m.startswith("fig7"):
                sys.modules.pop(m, None)

    def test_table2_job(self, spark):
        import table2_datasets

        df = table2_datasets.main(spark, sf=SF)
        assert isinstance(df, pd.DataFrame)
        assert list(df["Name"]) == [
            "youtube", "dblp", "flickr",
            "collegemsg", "email-eu", "mathoverflow", "stackoverflow",
        ]
        assert (df["|E|"] > 0).all()
        assert (df["Span(days)"] > 0).all()

    def test_table3_job(self):
        import table3_queries

        assert len(table3_queries.main(sf=SF)) == 20

    def test_table4_job(self):
        import table4_pruning

        assert len(table4_pruning.main(sf=SF)) == 4

    def test_table5_job(self):
        import table5_memory

        assert len(table5_memory.main(sf=SF)) == 7

    def test_fig7_job(self):
        import fig7_response_time

        assert len(fig7_response_time.main(sf=SF)) == 20

    def test_distributed_tcq_job(self, spark):
        import distributed_tcq

        df = distributed_tcq.main(spark, sf=SF)
        assert df["TTIs match"].all()
