"""PHC-Index construction and the iPHC-Query baseline (Algorithm 1)."""
import pytest

from repro.core.otcd import otcd_query
from repro.phc.baseline import iphc_query
from repro.phc.index import build_phc_index

from . import reference as ref
from .util import bursty_temporal_graph, core_edges, random_temporal_graph, tel_of


class TestIndex:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_core_times_match_coreness_semantics(self, seed, k):
        """core_time(v, ts) is the minimal te with coreness_[ts,te](v) >= k."""
        edges = random_temporal_graph(seed, n_vertices=8, n_edges=40, n_ticks=7)
        Ts, Te = 1, 7
        index = build_phc_index(edges, k, Ts, Te)
        vs = {u for u, _, _ in edges} | {v for _, v, _ in edges}
        for ts in range(Ts, Te + 1):
            for v in vs:
                ct = index[ts].get(v)
                for te in range(ts, Te + 1):
                    in_core = ref.coreness_over_interval(edges, v, ts, te) >= k
                    assert in_core == (ct is not None and te >= ct), (
                        f"v={v} ts={ts} te={te} ct={ct}"
                    )

    def test_core_time_monotone_in_ts(self):
        """Shrinking the window from the left cannot lower the core time."""
        edges = bursty_temporal_graph(0, n_ticks=12, burst_window=(5, 8))
        index = build_phc_index(edges, 2, 1, 12)
        for ts in range(1, 12):
            for v, ct in index[ts].items():
                nxt = index[ts + 1].get(v)
                assert nxt is None or nxt >= ct

    def test_vertices_never_in_core_absent(self):
        edges = [(1, 2, 1), (2, 3, 2), (1, 3, 3), (3, 4, 3)]
        index = build_phc_index(edges, 2, 1, 3)
        assert 4 not in index[1]  # pendant vertex never reaches coreness 2
        assert index[1][1] == 3   # triangle completes at t=3


class TestBaseline:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_equals_reference(self, seed, k):
        edges = random_temporal_graph(seed, n_vertices=10, n_edges=50, n_ticks=8)
        index = build_phc_index(edges, k, 1, 8)
        res = iphc_query(edges, index, k, 1, 8)
        assert {core_edges(edges, c) for c in res.cores} == set(
            ref.distinct_cores(edges, k, 1, 8)
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_otcd(self, seed):
        edges = bursty_temporal_graph(seed)
        k, Ts, Te = 2, 1, 20
        index = build_phc_index(edges, k, Ts, Te)
        res_b = iphc_query(edges, index, k, Ts, Te)
        res_o = otcd_query(tel_of(edges, Ts, Te), k, Ts, Te)
        assert res_b.keys() == res_o.keys()

    def test_subrange(self):
        edges = bursty_temporal_graph(2)
        index = build_phc_index(edges, 2, 6, 14)
        res = iphc_query(edges, index, 2, 6, 14)
        assert {core_edges(edges, c) for c in res.cores} == set(
            ref.distinct_cores(edges, 2, 6, 14)
        )

    def test_no_core(self):
        edges = [(1, 2, 1), (2, 3, 2)]
        index = build_phc_index(edges, 2, 1, 2)
        assert iphc_query(edges, index, 2, 1, 2).cores == []

    def test_rejects_an_index_not_covering_the_query(self):
        """An index over anchors 4..20 once answered [1, 20] with 67 of
        OTCD's 94 cores."""
        edges = bursty_temporal_graph(0)
        with pytest.raises(ValueError, match="does not cover"):
            iphc_query(edges, build_phc_index(edges, 2, 4, 20), 2, 1, 20)
        with pytest.raises(ValueError, match="does not cover"):
            iphc_query(edges, build_phc_index(edges, 2, 1, 19), 2, 1, 20)

    def test_tti_and_counts_recorded(self):
        edges = bursty_temporal_graph(3)
        index = build_phc_index(edges, 2, 1, 20)
        for c in iphc_query(edges, index, 2, 1, 20).cores:
            ce = core_edges(edges, c)
            assert c.tti == (min(t for _, _, t in ce), max(t for _, _, t in ce))
            assert c.n_edges == len(ce)
