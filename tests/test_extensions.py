"""Extensions of §6: link strength, time span, dynamic graphs."""
import pytest

from repro.core import reference as ref
from repro.core.extensions import requery_after_append, top_n_shortest_span
from repro.core.otcd import otcd_query, tcd_query

from .util import bursty_temporal_graph, random_temporal_graph, tel_of


class TestLinkStrength:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("sigma", [2, 3])
    def test_matches_reference(self, seed, sigma):
        edges = random_temporal_graph(seed, n_vertices=6, n_edges=60, n_ticks=6)
        expect = set(
            ref.distinct_cores(edges, 2, 1, 6, min_strength=sigma)
        )
        res = otcd_query(
            tel_of(edges, 1, 6), 2, 1, 6, min_strength=sigma, materialize=True
        )
        assert {c.edges for c in res.cores} == expect

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
        edges = [(1, 2, 1), (1, 2, 2), (2, 3, 1), (2, 3, 2), (1, 3, 1), (1, 3, 2)]
        res = otcd_query(tel_of(edges), 2, 1, 2, min_strength=2,
                         materialize=True)
        assert len(res.cores) >= 1
        assert res.cores[0].n_vertices == 3

    def test_tcd_variant_also_supports_strength(self):
        edges = random_temporal_graph(3, n_vertices=6, n_edges=60, n_ticks=6)
        tel = tel_of(edges, 1, 6)
        a = tcd_query(tel, 2, 1, 6, min_strength=2, materialize=True)
        b = otcd_query(tel, 2, 1, 6, min_strength=2, materialize=True)
        assert {c.edges for c in a.cores} == {c.edges for c in b.cores}


class TestTimeSpan:
    def test_max_span_filters(self):
        edges = bursty_temporal_graph(1, burst_window=(8, 11))
        tel = tel_of(edges)
        allc = otcd_query(tel, 2, 1, 20)
        short = otcd_query(tel, 2, 1, 20, max_span=4)
        assert short.ttis() == {
            t for t in allc.ttis() if t[1] - t[0] + 1 <= 4
        }

    def test_max_span_matches_reference(self):
        edges = bursty_temporal_graph(2, burst_window=(8, 11))
        expect = set(ref.distinct_cores(edges, 2, 1, 20, max_span=3))
        res = otcd_query(
            tel_of(edges), 2, 1, 20, max_span=3, materialize=True
        )
        assert {c.edges for c in res.cores} == expect

    def test_top_n_shortest(self):
        edges = bursty_temporal_graph(3)
        cores = otcd_query(tel_of(edges), 2, 1, 20).cores
        top = top_n_shortest_span(cores, 3)
        assert len(top) == min(3, len(cores))
        spans = [c.tti[1] - c.tti[0] for c in top]
        assert spans == sorted(spans)
        all_spans = sorted(c.tti[1] - c.tti[0] for c in cores)
        assert spans == all_spans[: len(top)]


class TestDynamic:
    def test_append_then_requery_equals_fresh(self):
        edges = bursty_temporal_graph(4, n_ticks=15)
        new = [(1, 2, 16), (2, 3, 16), (1, 3, 17), (1, 2, 17)]
        tel = tel_of(edges)
        res_dyn = requery_after_append(tel, new, 2, 1, 17)
        fresh = tel_of(edges + new, 1, 17)
        res_fresh = otcd_query(fresh, 2, 1, 17)
        assert res_dyn.ttis() == res_fresh.ttis()
        assert {(c.n_vertices, c.n_edges) for c in res_dyn.cores} == {
            (c.n_vertices, c.n_edges) for c in res_fresh.cores
        }

    def test_new_burst_creates_new_cores(self):
        edges = [(1, 2, t) for t in range(1, 6)]  # no core at all
        tel = tel_of(edges)
        assert otcd_query(tel, 2, 1, 5).cores == []
        burst = [(1, 2, 6), (2, 3, 6), (1, 3, 7)]
        res = requery_after_append(tel, burst, 2, 1, 7)
        assert len(res.cores) >= 1

    def test_append_out_of_order_rejected(self):
        tel = tel_of([(1, 2, 5)])
        with pytest.raises(ValueError):
            requery_after_append(tel, [(2, 3, 3)], 2, 1, 5)
