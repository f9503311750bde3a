"""A hand-built analogue of the paper's running example (Figure 1).

The paper's exact example graph is only given as a figure, so we build
a small temporal graph whose behaviour we can verify by hand: two small
bursts that later merge into a larger community — the scenario of
Example 1 (small cores merged into large ones, one pivotal vertex
present in all of them).
"""
from repro.core.otcd import otcd_query, tcd_query

from .util import tel_of

# Timeline (k = 2 throughout):
#   t=1..2 : triangle A = {1,2,3}            (red core)
#   t=4..5 : triangle B = {5,6,7}            (blue core)
#   t=6..7 : bridge edges join A and B via vertex 3-5 and 1-6,
#            forming one large 2-core over the whole window.
EDGES = [
    (1, 2, 1), (2, 3, 1), (1, 3, 2),
    (5, 6, 4), (6, 7, 4), (5, 7, 5),
    (3, 5, 6), (1, 6, 6), (3, 6, 7), (1, 5, 7),
]


def vertex_set(core_edges):
    return {u for u, _, _ in core_edges} | {v for _, v, _ in core_edges}


def test_distinct_cores_by_hand():
    res = otcd_query(tel_of(EDGES, 1, 7), 2, 1, 7, materialize=True)
    by_tti = {c.tti: c for c in res.cores}
    # Triangle A alone: induced by any window covering [1,2] but not B.
    assert (1, 2) in by_tti
    assert vertex_set(by_tti[(1, 2)].edges) == {1, 2, 3}
    # Triangle B alone.
    assert (4, 5) in by_tti
    assert vertex_set(by_tti[(4, 5)].edges) == {5, 6, 7}
    # The merged community needs the bridges: full window core.
    assert (1, 7) in by_tti
    assert vertex_set(by_tti[(1, 7)].edges) == {1, 2, 3, 5, 6, 7}


def test_merged_core_contains_small_cores():
    res = otcd_query(tel_of(EDGES, 1, 7), 2, 1, 7, materialize=True)
    by_tti = {c.tti: set(c.edges) for c in res.cores}
    assert by_tti[(1, 2)] <= by_tti[(1, 7)]
    assert by_tti[(4, 5)] <= by_tti[(1, 7)]


def test_historical_query_is_special_case():
    """HCQ([1,7]) = the single core of the full window — TCQ returns it
    among its results (paper §2.2: HCQ is a special case of TCQ)."""
    full = otcd_query(tel_of(EDGES, 1, 7), 2, 1, 7, materialize=True)
    ttis = full.ttis()
    assert (1, 7) in ttis
    assert len(ttis) > 1  # TCQ reveals cores HCQ cannot see


def test_both_algorithms_agree_on_example():
    tel = tel_of(EDGES, 1, 7)
    assert tcd_query(tel, 2, 1, 7).keys() == otcd_query(tel, 2, 1, 7).keys()


def test_k3_matches_reference():
    from repro.core import reference as ref

    res = otcd_query(tel_of(EDGES, 1, 7), 3, 1, 7, materialize=True)
    assert {c.edges for c in res.cores} == set(
        ref.distinct_cores(EDGES, 3, 1, 7)
    )
