"""Extensions of §6: link strength, time span, dynamic graphs."""
import pytest

from repro.core.otcd import otcd_query, tcd_query, top_n_shortest_span, within_span
from repro.core.tcd import window_tel

from . import reference as ref
from .util import (
    append_edges, bursty_temporal_graph, core_edges, random_temporal_graph, tel_of,
)


class TestLinkStrength:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("sigma", [2, 3])
    def test_matches_reference(self, seed, sigma):
        edges = random_temporal_graph(seed, n_vertices=6, n_edges=60, n_ticks=6)
        expect = set(
            ref.distinct_cores(edges, 2, 1, 6, min_strength=sigma)
        )
        res = otcd_query(tel_of(edges, 1, 6), 2, 1, 6, min_strength=sigma)
        assert {core_edges(edges, c) for c in res.cores} == expect

    def test_strength_one_is_plain_tcq(self):
        edges = bursty_temporal_graph(0)
        tel = tel_of(edges)
        plain = otcd_query(tel, 2, 1, 20)
        s1 = otcd_query(tel, 2, 1, 20, min_strength=1)
        assert plain.keys() == s1.keys()

    def test_strength_filters_weak_pairs(self):
        # Triangle with single edges: survives k=2 but not strength 2.
        edges = [(1, 2, 1), (2, 3, 1), (1, 3, 2)]
        tel = tel_of(edges)
        assert otcd_query(tel, 2, 1, 2).cores
        assert not otcd_query(tel, 2, 1, 2, min_strength=2).cores

    def test_strength_keeps_reinforced_triangle(self):
        edges = [(1, 2, 1), (2, 3, 1), (1, 3, 1), (1, 2, 2), (2, 3, 2), (1, 3, 2)]
        res = otcd_query(tel_of(edges), 2, 1, 2, min_strength=2)
        assert len(res.cores) >= 1
        assert res.cores[0].n_vertices == 3

    def test_tcd_variant_also_supports_strength(self):
        edges = random_temporal_graph(3, n_vertices=6, n_edges=60, n_ticks=6)
        tel = tel_of(edges, 1, 6)
        a = tcd_query(tel, 2, 1, 6, min_strength=2)
        b = otcd_query(tel, 2, 1, 6, min_strength=2)
        assert {core_edges(edges, c) for c in a.cores} == {
            core_edges(edges, c) for c in b.cores
        }


class TestTimeSpan:
    def test_max_span_filters(self):
        edges = bursty_temporal_graph(1, burst_window=(8, 11))
        allc = otcd_query(tel_of(edges), 2, 1, 20)
        short = within_span(allc.cores, 4)
        assert {c.tti for c in short} == {
            t for t in allc.ttis() if t[1] - t[0] + 1 <= 4
        }

    def test_max_span_matches_reference(self):
        edges = bursty_temporal_graph(2, burst_window=(8, 11))
        expect = set(ref.distinct_cores(edges, 2, 1, 20, max_span=3))
        res = otcd_query(tel_of(edges), 2, 1, 20)
        assert {core_edges(edges, c) for c in within_span(res.cores, 3)} == expect

    def test_top_n_shortest(self):
        edges = bursty_temporal_graph(3)
        cores = otcd_query(tel_of(edges), 2, 1, 20).cores
        top = top_n_shortest_span(cores, 3)
        assert len(top) == min(3, len(cores))
        spans = [c.tti[1] - c.tti[0] for c in top]
        assert spans == sorted(spans)
        all_spans = sorted(c.tti[1] - c.tti[0] for c in cores)
        assert spans == all_spans[: len(top)]

    def test_top_n_rejects_negative_n(self):
        """``[:-1]`` once returned every core but one (93 of 94)."""
        cores = otcd_query(tel_of(bursty_temporal_graph(0)), 2, 1, 20).cores
        assert top_n_shortest_span(cores, 0) == []
        with pytest.raises(ValueError, match="n >= 0"):
            top_n_shortest_span(cores, -1)


class TestDynamic:
    """Dynamic graphs (§6.1): new edges append, in time order, to the
    caller's edge arrays and the next query cuts its window again; edge
    ids stay positions."""

    BASE = bursty_temporal_graph(4, n_ticks=15)
    NEW = [(1, 2, 16), (2, 3, 16), (1, 3, 17), (1, 2, 17)]

    def test_append_then_requery_equals_fresh(self):
        grown = self.BASE + self.NEW
        tel = window_tel(*append_edges(self.BASE, self.NEW), 1, 17)
        res = otcd_query(tel, 2, 1, 17)
        assert {core_edges(grown, c) for c in res.cores} == set(
            ref.distinct_cores(grown, 2, 1, 17)
        )

    def test_earlier_signatures_keep_their_edges(self):
        before = otcd_query(tel_of(self.BASE), 2, 1, 15)
        assert before.cores
        grown = self.BASE + self.NEW
        assert [core_edges(grown, c) for c in before.cores] == [
            core_edges(self.BASE, c) for c in before.cores
        ]
        again = window_tel(*append_edges(self.BASE, self.NEW), 1, 15)
        assert otcd_query(again, 2, 1, 15).keys() == before.keys()

    def test_new_burst_creates_new_cores(self):
        edges = [(1, 2, t) for t in range(1, 6)]  # no core at all
        assert otcd_query(tel_of(edges), 2, 1, 5).cores == []
        burst = [(1, 2, 6), (2, 3, 6), (1, 3, 7)]
        res = otcd_query(window_tel(*append_edges(edges, burst), 1, 7), 2, 1, 7)
        assert {core_edges(edges + burst, c) for c in res.cores} == set(
            ref.distinct_cores(edges + burst, 2, 1, 7)
        )
        assert res.cores

    def test_append_out_of_order_rejected(self):
        arrays = append_edges([(1, 2, 5)], [(2, 3, 3)])
        with pytest.raises(ValueError, match="sorted"):
            window_tel(*arrays, 1, 5)
