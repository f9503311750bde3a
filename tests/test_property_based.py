"""Hypothesis property tests: TEL invariants and algorithm agreement on
arbitrary generated temporal multigraphs."""
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import tel as tel_module
from repro.core.otcd import otcd_query, tcd_query
from repro.core.tcd import tcd_operation
from repro.core.tel import TEL

from . import reference as ref
from .util import alive_ids, core_edges, sig_ids, tel_edges, tel_of, tel_times

loopy_edge_st = st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(1, 6))
edge_st = loopy_edge_st.filter(lambda e: e[0] != e[1])


def time_sorted(edge_st):
    """Time-sorted (stable) edge lists, the input model every TCQ
    implementation shares."""
    return st.lists(edge_st, min_size=1, max_size=40).map(
        lambda es: sorted(es, key=itemgetter(2))
    )


edges_st = time_sorted(edge_st)


@settings(max_examples=60, deadline=None)
@given(edges=time_sorted(loopy_edge_st))
def test_tel_build_invariants(edges):
    """Self-loops keep their positions, so they may be the first or last
    positions of the window, but never count as edges. The same-pair links
    chain each pair's positions in order: -1 and ``n`` past its ends and
    for self-loops."""
    tel = tel_of(edges)
    n = len(edges)
    pair, prev, nxt = (list(a) for a in (tel.ix.pair, tel.ix.prev, tel.ix.next))
    positions = {}
    for i, p in enumerate(pair):
        if p < 0:
            assert (prev[i], nxt[i]) == (-1, n)
            continue
        positions.setdefault(p, []).append(i)
        assert prev[i] < i < nxt[i]
        assert prev[i] < 0 or (pair[prev[i]] == p and nxt[prev[i]] == i)
        assert nxt[i] == n or pair[nxt[i]] == p
    for p, pos in positions.items():
        walk, i = [], pos[0]
        assert prev[i] == -1
        while i != n:
            walk.append(i)
            i = nxt[i]
        assert walk == pos
    real = [e for e in edges if e[0] != e[1]]
    assert tel.n_edges == len(real)
    ts = sorted({t for _, _, t in real})
    assert tel_times(edges, tel) == ts
    assert tel.get_tti() == ((ts[0], ts[-1]) if ts else None)
    # Degrees are distinct-neighbour counts.
    assert set(tel.degrees()) == {x for a, b, _ in real for x in (a, b)}
    for v in tel.vertices():
        nbrs = {b for a, b, _ in real if a == v} | {
            a for a, b, _ in real if b == v
        }
        assert tel.degrees()[v] == len(nbrs)


@settings(max_examples=40, deadline=None)
@given(
    edges=edges_st,
    k=st.integers(1, 3),
    ts=st.integers(1, 6),
    te=st.integers(1, 6),
    min_strength=st.integers(1, 3),
)
def test_tcd_operation_equals_reference(edges, k, ts, te, min_strength):
    if ts > te:
        ts, te = te, ts
    tel = tel_of(edges)
    tcd_operation(tel, k, ts, te, min_strength=min_strength)
    assert tel_edges(edges, tel) == ref.temporal_kcore(
        edges, k, ts, te, min_strength=min_strength
    )


@settings(max_examples=25, deadline=None)
@given(edges=edges_st, k=st.integers(1, 3))
def test_otcd_equals_tcd_equals_reference(edges, k):
    T = max(t for _, _, t in edges)
    expect = set(ref.distinct_cores(edges, k, 1, T))
    tel = tel_of(edges, 1, T)
    got_tcd = {core_edges(edges, c) for c in tcd_query(tel, k, 1, T).cores}
    got_otcd = {core_edges(edges, c) for c in otcd_query(tel, k, 1, T).cores}
    assert got_tcd == expect
    assert got_otcd == expect


@settings(max_examples=30, deadline=None)
@given(edges=edges_st, k=st.integers(1, 3))
def test_otcd_ttis_are_unique_and_tight(edges, k):
    T = max(t for _, _, t in edges)
    res = otcd_query(tel_of(edges, 1, T), k, 1, T)
    seen = set()
    for c in res.cores:
        assert c.tti not in seen
        seen.add(c.tti)
        ts = [t for _, _, t in core_edges(edges, c)]
        assert c.tti == (min(ts), max(ts))


op_st = st.one_of(
    # (op, handle, ...): a TCD operation or a copy.
    st.tuples(
        st.just("tcd"),
        st.integers(0, 3),
        st.sampled_from([0, 1, 2, 2, 2, 3, 9]),  # 9 > any degree (8 vertices)
        st.integers(0, 2),  # ts - first alive tick
        st.integers(-1, 2),  # last alive tick - te; -1 reaches past it
        st.integers(1, 2),
        st.sampled_from([False, True, True]),  # truncate by a k=0 call first
    ),
    st.tuples(st.just("copy"), st.integers(0, 3)),
)


def check_views(tel, ids, edges):
    """``tel`` holds exactly the edges with the ids ``ids`` (positions in
    ``edges``), inside ``[head, tail]`` no self-loop is alive and every
    position is alive exactly when the other positions of its pair there
    are, and its views bounded by the live time range equal scans of its
    positions. The degree checks then catch a pair killed without its
    positions cleared, or cleared without being killed."""
    pair, alive = tel.ix.pair, tel.alive
    state = {}
    broken = []
    for i in range(tel.head, tel.tail + 1):
        if pair[i] < 0:
            if alive[i]:
                broken.append(i)
        elif state.setdefault(pair[i], alive[i]) != alive[i]:
            broken.append(i)
    assert not broken, (
        f"positions {broken} in [{tel.head}, {tel.tail}] are alive self-loops, "
        "or differ in aliveness from an earlier position of their pair"
    )
    assert alive_ids(tel) == ids
    assert sig_ids(tel.signature()) == ids
    model = [edges[e] for e in ids]
    assert tel_edges(edges, tel) == sorted(model)
    assert tel.n_edges == len(model)
    nbrs = {}
    for u, v, _ in model:
        nbrs.setdefault(u, set()).add(v)
        nbrs.setdefault(v, set()).add(u)
    assert tel.degrees() == {x: len(s) for x, s in nbrs.items()}
    assert tel.vertices() == set(nbrs) and tel.n_vertices == len(nbrs)
    times = sorted({t for _, _, t in model})
    assert tel.get_tti() == ((times[0], times[-1]) if times else None)


@settings(max_examples=400, deadline=None)
@given(
    edges=st.lists(loopy_edge_st, min_size=8, max_size=40).map(
        lambda es: sorted(es, key=itemgetter(2))
    ),
    ops=st.lists(op_st, min_size=4, max_size=20),
    dropped=st.none() | st.sets(st.integers(0, 39)),
)
def test_operation_sequences_match_reference(edges, ops, dropped):
    """Any sequence of TCD operations (``k`` = 0, rising, falling, above
    every degree; single-tick windows; link strength; each optionally
    preceded by a truncating ``k=0`` call) and ``copy()`` on TELs sharing
    one index matches ``reference.temporal_kcore`` applied to each TEL's
    graph: no call sequence drops a peel candidate, kills a pair that keeps
    an edge, leaves a position alive without its pair or leaks state between
    copies. Given ``dropped``, the edges with those ids become self-loops:
    they keep their ids but are not indexed."""
    if dropped:
        edges = [
            (u, u if i in dropped else v, t) for i, (u, v, t) in enumerate(edges)
        ]
    run_operations(edges, ops)


def run_operations(edges, ops):
    """Apply ``ops`` (see ``op_st``) to a TEL of ``edges`` and its copies,
    checking every TEL against the reference after each step."""
    tel = TEL(*(list(x) for x in zip(*edges)))
    handles = [[tel, {e for e, (u, v, _) in enumerate(edges) if u != v}]]
    for op, i, *args in ops:
        h = handles[i % len(handles)]
        tel, ids = h
        if op == "tcd":
            # Windows shrink the TEL's TTI, as the sweep's operations do;
            # they may end up empty or a single tick.
            k, a, b, sigma, split = args
            lo, hi = tel.get_tti() or (1, 1)
            lo, hi = lo + a, hi - b
            if split:
                tcd_operation(tel, 0, lo, hi)
            tcd_operation(tel, k, lo, hi, min_strength=sigma)
            core = set(ref.temporal_kcore(
                [edges[e] for e in ids], k, lo, hi, min_strength=sigma
            ))
            # Equal triples are one pair at one tick: all stay or none.
            h[1] = {e for e in ids if edges[e] in core}
        else:
            handles.append([tel.copy(), set(ids)])
        for other, m in handles:
            check_views(other, m, edges)


@pytest.mark.parametrize("cutoff", [0, 10**9])
@settings(max_examples=200, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15), st.integers(1, 6)),
        min_size=8, max_size=60,
    ).map(lambda es: sorted(es, key=itemgetter(2))),
    ops=st.lists(op_st, min_size=4, max_size=20),
)
def test_kill_paths_match_reference(cutoff, edges, ops):
    """The kill kernel's two paths, forced by its batch cutoff (0: every
    kill through NumPy, 10**9: every kill as a Python loop), keep degrees,
    counts, the pair invariant and the cores equal to the reference through
    cuts from both sides, ``drop_weak_pairs`` at ``min_strength`` 2, rising
    ``k`` and peel cascades over sparse graphs."""
    with mock.patch.object(tel_module, "_BATCH", cutoff):
        run_operations(edges, ops)
