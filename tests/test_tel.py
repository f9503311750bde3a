"""Unit tests for the TEL data structure (paper §5.1, Table 1)."""
import pytest

from repro.core.tcd import tcd_operation, window_tel
from repro.core.tel import TEL

from .util import append_edges, random_temporal_graph, tel_edges, tel_of

# (u, v, t): a triangle at t=1..2 plus a pendant at t=3.
SIMPLE = [(1, 2, 1), (2, 3, 1), (1, 3, 2), (3, 4, 3)]


def simple_tel():
    return tel_of(SIMPLE)


class TestConstruction:
    def test_counts(self):
        tel = simple_tel()
        assert tel.n_edges == 4
        assert tel.n_vertices() == 4
        assert tel.vertices() == {1, 2, 3, 4}

    def test_tti_is_min_max_timestamp(self):
        assert simple_tel().get_tti() == (1, 3)

    def test_timeline_sorted(self):
        assert simple_tel().timestamps() == [1, 2, 3]

    def test_degrees_count_distinct_neighbours(self):
        # Parallel edges must not inflate the degree.
        tel = tel_of([(1, 2, 1), (1, 3, 1), (1, 2, 2), (1, 2, 3)])
        assert tel.degrees() == {1: 2, 2: 1, 3: 1}

    def test_empty(self):
        tel = TEL([], [], [])
        assert tel.is_empty()
        assert tel.get_tti() is None
        assert tel.vertices() == set()

    def test_edges_sorted_view(self):
        tel = simple_tel()
        assert tel_edges(SIMPLE, tel) == [(1, 2, 1), (1, 3, 2), (2, 3, 1), (3, 4, 3)]

    @pytest.mark.parametrize("seed", range(10))
    def test_n_edges_matches_alive(self, seed):
        edges = random_temporal_graph(seed)
        tel = tel_of(edges)
        assert tel.n_edges == len(tel.signature())
        assert tel.n_edges == len(tel_edges(edges, tel))


class TestDelEdge:
    def test_del_edge_updates_everything(self):
        tel = simple_tel()
        tel.del_edge(3)  # (3, 4, 3)
        assert tel.n_edges == 3
        assert 4 not in tel.vertices()
        assert tel.get_tti() == (1, 2)  # TL(3) removed with its last edge
        assert tel.timestamps() == [1, 2]

    def test_del_edge_degree_decrease(self):
        tel = simple_tel()
        assert tel.degrees()[3] == 3
        tel.del_edge(3)
        assert tel.degrees()[3] == 2

    def test_parallel_edge_del_keeps_degree(self):
        tel = tel_of([(1, 2, 1), (1, 3, 1), (2, 3, 1), (1, 2, 2)])
        tel.del_edge(3)  # one of the two parallel (1,2) edges
        assert tel.degrees()[1] == 2 and tel.degrees()[2] == 2

    def test_delete_all(self):
        tel = simple_tel()
        for e in tel.signature():
            tel.del_edge(e)
        assert tel.is_empty()
        assert tel.get_tti() is None
        assert tel.vertices() == set()
        assert tel.timestamps() == []

    @pytest.mark.parametrize("seed", range(10))
    def test_random_deletion_order_consistency(self, seed):
        import random

        edges = random_temporal_graph(seed, n_edges=30)
        tel = tel_of(edges)
        order = sorted(tel.signature())
        random.Random(seed).shuffle(order)
        for e in order:
            tel.del_edge(e)
            # Invariants after every deletion:
            alive = tel.signature()
            assert tel.n_edges == len(alive)
            # Every listed timestamp has an alive edge, and vice versa.
            assert tel.timestamps() == sorted({edges[x][2] for x in alive})
            if alive:
                tmin = min(edges[x][2] for x in alive)
                tmax = max(edges[x][2] for x in alive)
                assert tel.get_tti() == (tmin, tmax)
            else:
                assert tel.get_tti() is None


class TestAddEdge:
    """The paper's ``add_edge`` (§6.1): an edge appends, in time order, to
    the caller's edge arrays, and the next TEL cut from them holds it."""

    @staticmethod
    def appended(*new, edges=SIMPLE, ts=1, te=9):
        return window_tel(*append_edges(edges, new), ts, te)

    def test_append_new_timestamp(self):
        tel = self.appended((4, 1, 5))
        assert tel.n_edges == 5
        assert tel.get_tti() == (1, 5)
        assert tel.timestamps() == [1, 2, 3, 5]
        assert tel.signature() == set(range(5))

    def test_append_same_timestamp(self):
        tel = self.appended((4, 1, 3))
        assert tel.get_tti() == (1, 3)
        assert tel_edges(SIMPLE + [(4, 1, 3)], tel)[-2:] == [(3, 4, 3), (4, 1, 3)]

    def test_append_into_empty(self):
        tel = self.appended((1, 2, 7), edges=[])
        assert tel.get_tti() == (7, 7)
        assert tel.degrees() == {1: 1, 2: 1}

    def test_append_rejects_past_timestamps(self):
        with pytest.raises(ValueError, match="sorted"):
            self.appended((1, 2, 2))

    def test_append_updates_degree(self):
        tel = self.appended((1, 4, 5))
        assert tel.degrees()[1] == 3
        assert tel.degrees()[4] == 2

    def test_append_below_k_is_peeled(self):
        """A pendant vertex appended to a 2-core is peeled by the next
        operation at ``k = 2`` on the TEL cut again."""
        triangle = [(1, 2, 1), (2, 3, 1), (1, 3, 1)]
        tel = self.appended((3, 4, 2), edges=triangle, te=5)
        assert tel.vertices() == {1, 2, 3, 4}
        tcd_operation(tel, 2, 1, 5)
        assert tel_edges(triangle, tel) == sorted(triangle)


class TestPeelWorklist:
    def test_truncation_at_k0_keeps_peel_candidates(self):
        """A ``k=0`` call (truncation only) between two calls at ``k=2``
        keeps the vertices it pushes below 2 for the next call."""
        edges = [(1, 2, 1), (2, 3, 2), (1, 3, 2), (3, 4, 2), (4, 1, 3)]
        tel = tel_of(edges)
        tcd_operation(tel, 2, 1, 3)
        assert tel.n_edges == 5
        tcd_operation(tel, 0, 2, 3)  # drops (1, 2): 2 now has one neighbour
        tcd_operation(tel, 2, 2, 3)
        assert tel_edges(edges, tel) == [(1, 3, 2), (3, 4, 2), (4, 1, 3)]

    def test_rising_k_rescans(self):
        tel = tel_of([(1, 2, 1), (2, 3, 1), (1, 3, 1), (3, 4, 1), (4, 1, 1)])
        tcd_operation(tel, 2, 1, 1)
        assert tel.n_edges == 5
        tcd_operation(tel, 3, 1, 1)
        assert tel.is_empty()


class TestCopy:
    def test_copy_is_independent(self):
        tel = simple_tel()
        cp = tel.copy()
        cp.del_edge(0)
        assert tel.n_edges == 4 and cp.n_edges == 3
        assert tel.degrees()[1] == 2 and cp.degrees()[1] == 1

    def test_copy_preserves_ids(self):
        tel = simple_tel()
        tel.del_edge(0)
        cp = tel.copy()
        assert cp.signature() == tel.signature() == frozenset({1, 2, 3})

    @pytest.mark.parametrize("seed", range(5))
    def test_copy_equivalence_random(self, seed):
        tel = tel_of(random_temporal_graph(seed))
        cp = tel.copy()
        assert cp.signature() == tel.signature()
        assert cp.degrees() == tel.degrees()
        assert cp.timestamps() == tel.timestamps()


class TestWindowTel:
    def test_window_restricts_edges(self):
        edges = [(1, 2, 1), (2, 3, 5), (1, 3, 9)]
        tel = tel_of(edges, 2, 8)
        assert tel_edges(edges, tel) == [(2, 3, 5)]

    def test_window_keeps_global_ids(self):
        edges = [(1, 2, 1), (2, 3, 5), (1, 3, 9)]
        tel = tel_of(edges, 2, 8)
        assert tel.signature() == {1}
