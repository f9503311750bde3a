"""The TEL's pair cuts: peeling and cuts delete whole vertex pairs, so a cut
from the left kills the pairs whose last alive position it reaches and one
from the right those whose first it reaches, read off the index's
same-pair links (a next position past ``tail``, a previous one before
``head``) with no per-copy state. Checked against the brute-force
reference on adversarial graphs, on anchor blocks ``rows=(lo, hi)`` with
``hi < Te``, with the link-strength extension, and through arbitrary
sequences of cuts from either side and copies."""
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.otcd import otcd_query, sweep
from repro.core.records import edge_signature
from repro.core.tcd import tcd_operation, window_tel
from repro.core.tel import TEL

from . import reference as ref
from .util import alive_ids, arrays_of, sig_ids, tel_edges

# Pair (1, 4) has edges at ticks 1 and 3: inside [2, 4] its only edge sits
# on tick 3, which the chain's cut at ts=4 and the rows' cut at te=2 reach.
ONLY_EDGE_ON_CUT = [
    (1, 4, 1), (1, 2, 2), (2, 3, 2), (1, 3, 2), (1, 4, 3), (3, 4, 3), (2, 4, 4),
]
# Pairs (1, 2) and (3, 4) hold both ends of [1, 4] and of [2, 4] with
# parallel edges, so a row's cut leaves them edges before the cut.
PARALLEL_AT_ENDS = [
    (1, 2, 1), (1, 2, 1), (3, 4, 1), (1, 2, 2), (2, 3, 2), (1, 3, 2),
    (3, 4, 2), (2, 4, 3), (1, 4, 3), (3, 4, 3), (3, 4, 4), (1, 2, 4),
    (1, 2, 4),
]
# Self-loops on every tick, holding the first and last positions of each.
LOOPS_AT_CUTS = [
    (5, 5, 1), (1, 2, 1), (2, 3, 1), (1, 3, 1), (2, 2, 1),
    (3, 3, 2), (1, 3, 2), (3, 4, 2), (2, 4, 2), (4, 4, 2),
    (1, 1, 3), (1, 4, 3), (1, 2, 3), (6, 6, 3),
]
ADVERSARIAL = [ONLY_EDGE_ON_CUT, PARALLEL_AT_ENDS, LOOPS_AT_CUTS]


def cells(graph, k, Ts, Te, **kw):
    """Every cell a sweep yields, with its core's edge ids."""
    return [
        (ts, te, tti, sig_ids(core.signature()), core.n_vertices)
        for ts, te, tti, core in sweep(graph, k, Ts, Te, **kw)
    ]


def assert_sweeps_match_reference(edges, k, Ts, Te, min_strength):
    """An unpruned sweep yields exactly the non-empty cells of the
    reference, and every anchor block ``(lo, hi)`` yields the full sweep's
    cells of its rows; pruned blocks together find the full query's cores."""
    arrays = arrays_of(edges)
    full = cells(TEL(*arrays), k, Ts, Te, prune=False, min_strength=min_strength)
    want = {}
    for ts in range(Ts, Te + 1):
        for te in range(ts, Te + 1):
            core = ref.temporal_kcore(edges, k, ts, te, min_strength=min_strength)
            if core:
                want[ts, te] = core
    assert {(ts, te) for ts, te, *_ in full} == set(want)
    for ts, te, tti, ids, nv in full:
        core = want[ts, te]
        assert sorted(edges[e] for e in ids) == core
        times = [t for *_, t in core]
        assert tti == (min(times), max(times))
        assert nv == len({x for u, v, _ in core for x in (u, v)})
    whole = otcd_query(
        window_tel(*arrays, Ts, Te), k, Ts, Te, min_strength=min_strength
    )
    for lo in range(Ts, Te + 1):
        for hi in range(lo, Te + 1):
            block = cells(
                TEL(*arrays), k, Ts, Te, rows=(lo, hi), prune=False,
                min_strength=min_strength,
            )
            assert block == [c for c in full if lo <= c[0] <= hi]
    keys = set()
    for lo in range(Ts, Te + 1):  # one-row blocks: no pruning marks shared
        res = otcd_query(
            TEL(*arrays), k, Ts, Te, rows=(lo, lo), min_strength=min_strength
        )
        keys |= res.keys()
    assert keys == whole.keys()


@pytest.mark.parametrize("edges", ADVERSARIAL)
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("min_strength", [1, 2])
def test_adversarial_graphs(edges, k, min_strength):
    Te = edges[-1][2]
    assert_sweeps_match_reference(edges, k, 1, Te, min_strength)
    assert_sweeps_match_reference(edges, k, 2, Te, min_strength)


@settings(max_examples=60, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 6)),
        min_size=12, max_size=60,
    ).map(lambda es: sorted(es, key=itemgetter(2))),
    k=st.integers(1, 3),
    Ts=st.integers(1, 3),
    min_strength=st.sampled_from([1, 1, 2]),
)
def test_blocks_match_full_sweep_and_reference(edges, k, Ts, min_strength):
    assert_sweeps_match_reference(edges, k, Ts, 6, min_strength)


def check(tel, model, edges):
    """``tel`` holds exactly the graph ``model``; its signature is the
    encoder of the alive ids inside ``[head, tail]``."""
    assert tel_edges(edges, tel) == sorted(model)
    assert tel.n_edges == len(model)
    nbrs = {}
    for u, v, _ in model:
        nbrs.setdefault(u, set()).add(v)
        nbrs.setdefault(v, set()).add(u)
    assert tel.degrees() == {x: len(s) for x, s in nbrs.items()}
    assert tel.n_vertices == len(nbrs)
    times = sorted(t for *_, t in model)
    assert tel.get_tti() == ((times[0], times[-1]) if model else None)
    assert tel.signature() == edge_signature(alive_ids(tel))


@settings(max_examples=150, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(1, 8)),
        min_size=8, max_size=200,
    ).map(lambda es: sorted(es, key=itemgetter(2))),
    k=st.integers(1, 3),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["cut", "cut", "cut", "copy"]),
            st.integers(0, 3),
            st.integers(0, 4),  # ticks cut
            st.booleans(),  # from the left (else the right)
            st.booleans(),  # precede the cut by a k=0 call, as a tracer does
        ),
        min_size=1, max_size=12,
    ),
)
def test_one_sided_cut_sequences(edges, k, ops):
    """From a first two-sided operation, any sequence of one-sided cuts
    from either side and copies (which share the index's links) matches
    the reference: a cut reads the links of its side, whatever side the
    TEL or the copy it came from was cut from before."""
    tel = TEL(*arrays_of(edges))
    lo, hi = 2, 7
    tcd_operation(tel, k, lo, hi)
    handles = [[tel, ref.temporal_kcore(edges, k, lo, hi), lo, hi]]
    for op, i, d, left, split in ops:
        h = handles[i % len(handles)]
        tel, model, lo, hi = h
        if op == "copy":
            handles.append([tel.copy(), list(model), lo, hi])
        else:
            if left:
                lo += d
            else:
                hi -= d
            if split:
                tcd_operation(tel, 0, lo, hi)
            tcd_operation(tel, k, lo, hi)
            h[1:] = ref.temporal_kcore(model, k, lo, hi), lo, hi
        for other, m, *_ in handles:
            check(other, m, edges)
