"""Unit tests for the TEL data structure (paper §5.1, Table 1)."""
import numpy as np
import pytest

from repro.core import tel as tel_module
from repro.core.otcd import otcd_query
from repro.core.tcd import tcd_operation, window_tel
from repro.core.tel import TEL, _sort_stably

from .util import (
    append_edges, random_temporal_graph, sig_ids, tel_edges, tel_of, tel_times,
)

# (u, v, t): a triangle at t=1..2 plus a pendant at t=3.
SIMPLE = [(1, 2, 1), (2, 3, 1), (1, 3, 2), (3, 4, 3)]


def simple_tel():
    return tel_of(SIMPLE)


class TestConstruction:
    def test_counts(self):
        tel = simple_tel()
        assert tel.n_edges == 4
        assert tel.n_vertices == 4
        assert tel.vertices() == {1, 2, 3, 4}

    def test_tti_is_min_max_timestamp(self):
        assert simple_tel().get_tti() == (1, 3)

    def test_timeline_sorted(self):
        assert tel_times(SIMPLE, simple_tel()) == [1, 2, 3]

    def test_degrees_count_distinct_neighbours(self):
        # Parallel edges must not inflate the degree.
        tel = tel_of([(1, 2, 1), (1, 3, 1), (1, 2, 2), (1, 2, 3)])
        assert tel.degrees() == {1: 2, 2: 1, 3: 1}

    def test_empty(self):
        tel = TEL([], [], [])
        assert tel.n_edges == 0
        assert tel.get_tti() is None
        assert tel.vertices() == set()

    def test_edges_sorted_view(self):
        tel = simple_tel()
        assert tel_edges(SIMPLE, tel) == [(1, 2, 1), (1, 3, 2), (2, 3, 1), (3, 4, 3)]

    @pytest.mark.parametrize("seed", range(10))
    def test_n_edges_matches_alive(self, seed):
        edges = random_temporal_graph(seed)
        tel = tel_of(edges)
        assert tel.n_edges == len(sig_ids(tel.signature()))
        assert tel.n_edges == len(tel_edges(edges, tel))


class TestDeadWindowEnds:
    """Self-loops hold the window's first and last positions and a peel
    kills its first and last alive edges, so the alive-position bounds
    start on dead positions and must look past them."""

    # Pendants 4 and 6 hang off the triangle 1-2-3 at positions 1 and 5.
    EDGES = [
        (5, 5, 1), (1, 4, 1), (1, 2, 2), (2, 3, 2), (1, 3, 3), (3, 6, 4), (7, 7, 4),
    ]

    def test_peel_kills_both_ends(self):
        tel = tel_of(self.EDGES)
        tcd_operation(tel, 2, 1, 4)
        assert tel.get_tti() == (2, 3)
        assert tel_times(self.EDGES, tel) == [2, 3]
        assert sig_ids(tel.signature()) == {2, 3, 4}
        tcd_operation(tel, 0, 4, 4)
        assert tel.n_edges == 0 and tel.get_tti() is None
        assert tel_times(self.EDGES, tel) == []
        assert sig_ids(tel.signature()) == frozenset()
        assert tel.vertices() == set()

    def test_copy_with_loose_bounds_truncates_to_empty(self):
        """A copy taken before any ``get_tti`` keeps the bounds on the
        self-loops; truncating below the triangle empties it."""
        tel = tel_of(self.EDGES)
        tcd_operation(tel, 2, 1, 4)
        cp = tel.copy()
        tcd_operation(cp, 0, 1, 1)
        assert cp.n_edges == 0 and cp.get_tti() is None
        assert tel_times(self.EDGES, cp) == []
        assert sig_ids(cp.signature()) == frozenset()
        assert tel.get_tti() == (2, 3)


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
        assert tel_times(SIMPLE + [(4, 1, 5)], tel) == [1, 2, 3, 5]
        assert sig_ids(tel.signature()) == set(range(5))

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

    @pytest.mark.parametrize("cutoff", [0, 64])
    def test_falling_k_keeps_vertices_at_the_new_k(self, cutoff, monkeypatch):
        """A cut at ``k=3`` pushes 2 and 3 below 3; the next call at ``k=2``
        finds them at degree 2 and keeps them, on both peel-round paths."""
        monkeypatch.setattr(tel_module, "_BATCH", cutoff)
        edges = [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1), (2, 3, 2)]
        tel = tel_of(edges)
        tcd_operation(tel, 3, 1, 2)
        assert tel.n_edges == 6
        tcd_operation(tel, 2, 1, 1)
        assert tel_edges(edges, tel) == sorted(edges[:5])

    def test_rising_k_rescans(self):
        tel = tel_of([(1, 2, 1), (2, 3, 1), (1, 3, 1), (3, 4, 1), (4, 1, 1)])
        tcd_operation(tel, 2, 1, 1)
        assert tel.n_edges == 5
        tcd_operation(tel, 3, 1, 1)
        assert tel.n_edges == 0


class TestCopy:
    def test_copy_is_independent(self):
        tel = simple_tel()
        cp = tel.copy()
        tcd_operation(cp, 0, 2, 3)  # drops the two t=1 edges
        assert tel.n_edges == 4 and cp.n_edges == 2
        assert tel.degrees()[1] == 2 and cp.degrees()[1] == 1
        tcd_operation(tel, 0, 1, 2)  # drops (3, 4, 3) from the original only
        assert tel_edges(SIMPLE, tel) == [(1, 2, 1), (1, 3, 2), (2, 3, 1)]
        assert tel_edges(SIMPLE, cp) == [(1, 3, 2), (3, 4, 3)]

    def test_copy_preserves_ids(self):
        tel = simple_tel()
        tcd_operation(tel, 0, 2, 3)
        cp = tel.copy()
        assert sig_ids(cp.signature()) == sig_ids(tel.signature()) == frozenset({2, 3})

    @pytest.mark.parametrize("seed", range(5))
    def test_copy_equivalence_random(self, seed):
        edges = random_temporal_graph(seed)
        tel = tel_of(edges)
        cp = tel.copy()
        assert cp.signature() == tel.signature()
        assert cp.degrees() == tel.degrees()
        assert tel_times(edges, cp) == tel_times(edges, tel)


class TestWindowTel:
    def test_window_restricts_edges(self):
        edges = [(1, 2, 1), (2, 3, 5), (1, 3, 9)]
        tel = tel_of(edges, 2, 8)
        assert tel_edges(edges, tel) == [(2, 3, 5)]

    def test_window_keeps_global_ids(self):
        edges = [(1, 2, 1), (2, 3, 5), (1, 3, 9)]
        tel = tel_of(edges, 2, 8)
        assert sig_ids(tel.signature()) == {1}


class TestBuildSorts:
    """The build sorts unique composite keys ``(key - min) << s | i``
    (``2**s >= n``) with NumPy's default sort and takes the stable sort when
    one could overflow int64; both give the stable order."""

    @pytest.mark.parametrize(
        "keys",
        [
            [3, 1, 3, 0, 1, 3],
            [-5, 7, -5, 7, 0],
            # (max - min + 1) * 2**s == 2**63 (n = 2**s = 4): the largest
            # composite is 2**63 - 1.
            [2**61 - 1, 0, 2**61 - 1, 0],
            # One more: the composite would overflow, so the stable sort runs.
            [2**61, 0, 2**61, 0],
            [2**62, -(2**62), 0, 2**62, -(2**62)],
            [],
        ],
    )
    def test_sort_stably_is_the_stable_argsort(self, keys):
        keys = np.array(keys, np.int64)
        want = np.argsort(keys, kind="stable")
        got = keys.copy()
        assert _sort_stably(got).tolist() == want.tolist()
        assert got.tolist() == keys[want].tolist()

    @pytest.mark.parametrize("seed", range(5))
    def test_labels_past_the_composite_range(self, seed, monkeypatch):
        """Labels spanning about +-2**62 overflow the endpoint composite, so
        that sort falls back to the stable one; the index and the answers
        equal those of a densely relabelled copy, which sorts composites."""
        edges = random_temporal_graph(seed, n_vertices=12, n_edges=60)
        vertices = sorted({x for u, v, _ in edges for x in (u, v)})
        spread = np.linspace(-(2**62), 2**62, len(vertices)).astype(np.int64)
        huge = dict(zip(vertices, spread.tolist()))
        dense = {x: r for r, x in enumerate(vertices)}
        stable_sorts = []
        argsort = np.argsort

        def spy(a, kind=None):
            stable_sorts.append(kind)
            return argsort(a, kind=kind)

        monkeypatch.setattr(np, "argsort", spy)
        tels = []
        for name in (huge, dense):
            relabelled = [(name[u], name[v], t) for u, v, t in edges]
            tels.append(tel_of(relabelled))
        assert stable_sorts == ["stable"]
        big, small = tels
        for field in ("pair", "prev", "next", "inc", "inc_ptr", "pu", "pv"):
            assert list(getattr(big.ix, field)) == list(getattr(small.ix, field))
        assert list(big.ix.labels) == sorted(huge.values())
        for k in (1, 2, 3):
            assert otcd_query(big, k, 1, 8).cores == otcd_query(small, k, 1, 8).cores
