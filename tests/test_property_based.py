"""Hypothesis property tests: TEL invariants and algorithm agreement on
arbitrary generated temporal multigraphs."""
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import reference as ref
from repro.core.otcd import otcd_query, tcd_query
from repro.core.tcd import tcd_operation

from .util import tel_of

edge_st = st.tuples(
    st.integers(0, 7), st.integers(0, 7), st.integers(1, 6)
).filter(lambda e: e[0] != e[1])
edges_st = st.lists(edge_st, min_size=1, max_size=40)


@settings(max_examples=60, deadline=None)
@given(edges=edges_st)
def test_tel_build_invariants(edges):
    tel = tel_of(edges)
    assert tel.n_edges == len(edges)
    ts = sorted({t for _, _, t in edges})
    assert tel.timestamps() == ts
    assert tel.get_tti() == (ts[0], ts[-1])
    # Degrees are distinct-neighbour counts.
    for v in tel.vertices():
        nbrs = {b for a, b, _ in edges if a == v} | {
            a for a, b, _ in edges if b == v
        }
        assert tel.deg[v] == len(nbrs)


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
    assert tel.edges() == ref.temporal_kcore(
        edges, k, ts, te, min_strength=min_strength
    )


@settings(max_examples=25, deadline=None)
@given(edges=edges_st, k=st.integers(1, 3))
def test_otcd_equals_tcd_equals_reference(edges, k):
    T = max(t for _, _, t in edges)
    expect = set(ref.distinct_cores(edges, k, 1, T))
    tel = tel_of(edges, 1, T)
    got_tcd = {c.edges for c in tcd_query(tel, k, 1, T, materialize=True).cores}
    got_otcd = {c.edges for c in otcd_query(tel, k, 1, T, materialize=True).cores}
    assert got_tcd == expect
    assert got_otcd == expect


@settings(max_examples=30, deadline=None)
@given(edges=edges_st, k=st.integers(1, 3))
def test_otcd_ttis_are_unique_and_tight(edges, k):
    T = max(t for _, _, t in edges)
    res = otcd_query(tel_of(edges, 1, T), k, 1, T, materialize=True)
    seen = set()
    for c in res.cores:
        assert c.tti not in seen
        seen.add(c.tti)
        tmin = min(t for _, _, t in c.edges)
        tmax = max(t for _, _, t in c.edges)
        assert c.tti == (tmin, tmax)
