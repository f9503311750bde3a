"""The input model (time-sorted edge arrays, ids = positions, self-loops
ignored, cached arrays never mutated) and the binary-search window cut
built on it."""
import math
from collections.abc import Sequence
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.otcd import otcd_query, tcd_query
from repro.core.tcd import tcd_operation, window_tel
from repro.core.tel import TEL
from repro.datasets.temporal import DATASETS, edge_arrays, generate_pdf
from repro.phc.baseline import iphc_query
from repro.phc.index import build_phc_index

from . import reference as ref
from .util import SELF_LOOP_GRAPHS, append_edges, core_edges, tel_of

sorted_edges_st = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(1, 9)).filter(
        lambda e: e[0] != e[1]
    ),
    max_size=40,
).map(lambda es: sorted(es, key=itemgetter(2)))


def arrays_of(edges):
    return tuple(list(x) for x in zip(*edges)) if edges else ([], [], [])


@settings(max_examples=80, deadline=None)
@given(edges=sorted_edges_st, ts=st.integers(0, 10), te=st.integers(0, 10))
def test_window_equals_scan(edges, ts, te):
    us, vs, tts = arrays_of(edges)
    tel = window_tel(us, vs, tts, ts, te)
    assert tel.signature() == {e for e, t in enumerate(tts) if ts <= t <= te}


VIEWS = ("signature", "vertices", "degrees", "timestamps", "get_tti",
         "n_vertices", "is_empty")


@settings(max_examples=60, deadline=None)
@given(
    edges=sorted_edges_st,
    k=st.integers(0, 3),
    ts=st.integers(1, 9),
    te=st.integers(1, 9),
    k2=st.integers(0, 4),
)
def test_copy_equals_rebuild(edges, k, ts, te, k2):
    """After any TCD operation, ``copy()`` equals a rebuild over the alive
    edges in every public view, and both answer a further operation alike
    (the copy's worklist loses no peel candidate). The rebuild turns the
    dead edges into self-loops: they keep their ids but are not indexed."""
    us, vs, tts = arrays_of(edges)
    tel = TEL(us, vs, tts)
    tcd_operation(tel, k, min(ts, te), max(ts, te))
    cp = tel.copy()
    alive = tel.signature()
    loops = [v if e in alive else u for e, (u, v) in enumerate(zip(us, vs))]
    rebuilt = TEL(us, loops, tts)
    for f in VIEWS:
        assert getattr(cp, f)() == getattr(rebuilt, f)(), f
    assert cp.n_edges == rebuilt.n_edges
    for x in (cp, rebuilt):
        tcd_operation(x, k2, min(ts, te), max(ts, te))
    assert cp.signature() == rebuilt.signature()


class CountingTimes(Sequence):
    """``edge_t = [i // 10 for i in range(n)]`` that counts item reads."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.reads = 0

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self.n))]
        self.reads += 1
        if not 0 <= i < self.n:
            raise IndexError(i)
        return i // 10


@pytest.mark.parametrize("ts, te", [(0, 0), (5_000, 5_099), (99_990, 99_999), (50, 40)])
def test_window_reads_window_plus_log(ts, te):
    n = 10**6
    times = CountingTimes(n)
    tel = window_tel(range(n), range(1, n + 1), times, ts, te)
    w = tel.n_edges
    assert w == max(0, te - ts + 1) * 10
    assert times.reads <= w + 4 * math.log2(n)


class CountingEdges(CountingTimes):
    """``[(i, i + 1, i // 10) for i in range(n)]`` that counts item reads."""

    def __getitem__(self, i):
        if isinstance(i, slice):
            return super().__getitem__(i)
        return (i, i + 1, super().__getitem__(i))


@pytest.mark.parametrize("ts, te", [(0, 0), (5_000, 5_009), (9_990, 9_999)])
def test_phc_index_reads_window_plus_log(ts, te):
    """``build_phc_index`` cuts its window from the ``(u, v, t)`` list by
    binary search: it reads the window's triples and O(log |E|) others."""
    n = 10**5
    edges = CountingEdges(n)
    index = build_phc_index(edges, 1, ts, te)
    w = (te - ts + 1) * 10
    assert edges.reads <= w + 4 * math.log2(n)
    window = range(10 * ts, 10 * ts + w)
    assert set(index) == set(range(ts, te + 1))
    assert set(index[ts]) == {x for i in window for x in (i, i + 1)}


def test_out_of_order_cut_raises():
    us, vs = [1, 2, 3], [2, 3, 4]
    with pytest.raises(ValueError, match="sorted"):
        window_tel(us, vs, [5, 1, 2], 1, 2)
    edges = [(1, 2, 5), (2, 3, 1), (3, 4, 2)]
    with pytest.raises(ValueError, match="sorted"):
        iphc_query(edges, {}, 2, 1, 2)


@pytest.mark.parametrize(
    "us, vs, ts, eids",
    [
        ([1, 2, 3], [2, 3, 4], [5, 1, 2], None),
        ([1, 2, 3], [2, 3, 4], [1, 2, 2], range(1, 3)),
        ([1, 2, 3], [2, 3, 4], [1, 3, 2], range(0, 2)),
        ([1, 2, 3], [2, 3, 4], [1, 3, 2], range(1, 3)),
    ],
)
def test_tel_checks_time_order(us, vs, ts, eids):
    ids = eids if eids is not None else range(len(ts))
    if all(ts[a] <= ts[b] for a, b in zip(ids, ids[1:])):
        assert TEL(us, vs, ts, eids=eids).signature() == set(ids)
    else:
        with pytest.raises(ValueError, match="sorted"):
            TEL(us, vs, ts, eids=eids)


@pytest.mark.parametrize("ts", [[1, 2.5], [1.0, 2.0], [1, "2"], [None, 1], [True, True]])
def test_tel_rejects_non_integer_timestamps(ts):
    with pytest.raises(ValueError, match="integers"):
        TEL([1, 2], [2, 3], ts)


def test_tel_rejects_unsorted_edge_list():
    with pytest.raises(ValueError, match="sorted"):
        TEL([1, 2], [2, 3], [2, 1])


def test_append_leaves_shared_arrays_alone():
    """A dynamic append (§6.1) grows the caller's copy of the cached
    dataset arrays, never the cache, so later windows cut from the cache
    stay right."""
    sf = 0.1
    us, vs, ts = edge_arrays("collegemsg", sf)
    T0, t_last = ts[-100], ts[-1]
    new = [(0, 1, t_last + 1), (1, 2, t_last + 1)]
    grown = append_edges(list(zip(us, vs, ts)), new)
    otcd_query(window_tel(*grown, T0, t_last + 1), 2, T0, t_last + 1)
    assert len(edge_arrays("collegemsg", sf)[0]) == len(grown[0]) - 2

    pdf = generate_pdf(DATASETS["collegemsg"].scaled(sf))
    fresh = pdf["u"].tolist(), pdf["v"].tolist(), pdf["t"].tolist()
    Ts, Te = ts[len(ts) // 2], ts[len(ts) // 2] + 200
    got = otcd_query(window_tel(us, vs, ts, Ts, Te), 2, Ts, Te)
    want = otcd_query(window_tel(*fresh, Ts, Te), 2, Ts, Te)
    assert got.keys() == want.keys()


def check_driver_implementations(edges, k):
    """Reference, TCD, OTCD and iPHC agree, and all ignore self-loops."""
    Ts, Te = edges[0][2], edges[-1][2]
    want = set(ref.distinct_cores(edges, k, Ts, Te))
    loop_free = ref.distinct_cores([e for e in edges if e[0] != e[1]], k, Ts, Te)
    assert want == set(loop_free)
    tel = tel_of(edges, Ts, Te)
    for res in (
        tcd_query(tel, k, Ts, Te),
        otcd_query(tel, k, Ts, Te),
        iphc_query(edges, build_phc_index(edges, k, Ts, Te), k, Ts, Te),
    ):
        assert {core_edges(edges, c) for c in res.cores} == want
        assert all(c.n_edges == len(core_edges(edges, c)) for c in res.cores)


@pytest.mark.parametrize("gi", range(len(SELF_LOOP_GRAPHS)))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_self_loops_ignored_by_driver_implementations(gi, k):
    check_driver_implementations(SELF_LOOP_GRAPHS[gi], k)


@settings(max_examples=30, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 5)),
        min_size=1,
        max_size=25,
    ).map(lambda es: sorted(es, key=itemgetter(2))),
    k=st.integers(1, 3),
)
def test_random_self_loops_ignored_by_driver_implementations(edges, k):
    check_driver_implementations(edges, k)


def test_self_loop_append_takes_id_but_not_indexed():
    edges = SELF_LOOP_GRAPHS[1]
    us, vs, ts = append_edges(edges, [(5, 5, 4)])
    tel = window_tel(us, vs, ts, 1, 4)
    e = len(edges)
    assert (us[e], vs[e], ts[e]) == (5, 5, 4)
    assert e not in tel.signature() and 5 not in tel.vertices()
    assert tel.get_tti() == (1, 3)
