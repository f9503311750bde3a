"""Edge-set signatures (``repro.core.records``): a TEL's packed-bit
signature equals the shared encoder applied to its alive edge ids, and the
encoding is canonical, so equal edge sets give equal signatures."""
from operator import itemgetter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import edge_signature
from repro.core.tcd import tcd_operation, window_tel
from repro.core.tel import TEL

from .util import SELF_LOOP_GRAPHS, alive_ids, arrays_of, sig_ids

loopy_edges_st = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(1, 8)), max_size=60
).map(lambda es: sorted(es, key=itemgetter(2)))


@settings(max_examples=150, deadline=None)
@given(
    edges=loopy_edges_st,
    k=st.integers(0, 3),
    ts=st.integers(0, 9),
    te=st.integers(0, 9),
)
def test_tel_signature_is_the_encoder_of_its_alive_ids(edges, k, ts, te):
    """Self-loops may hold either end of the window, and ``truncate`` and
    ``peel`` leave ``head``/``tail`` untightened; the signature tightens
    them itself."""
    tel = TEL(*arrays_of(edges))
    assert tel.signature() == edge_signature(alive_ids(tel))
    tcd_operation(tel, k, min(ts, te), max(ts, te))
    ids = alive_ids(tel)
    assert tel.signature() == edge_signature(ids)
    assert sig_ids(tel.signature()) == ids


@settings(max_examples=100, deadline=None)
@given(edges=loopy_edges_st, ts=st.integers(0, 9), te=st.integers(0, 9))
def test_window_signature_equals_truncated_full_tel(edges, ts, te):
    ts, te = min(ts, te), max(ts, te)
    full = TEL(*arrays_of(edges))
    tcd_operation(full, 0, ts, te)
    assert window_tel(*arrays_of(edges), ts, te).signature() == full.signature()


@settings(max_examples=100, deadline=None)
@given(ids=st.sets(st.integers(0, 300)), extra=st.lists(st.integers(0, 300)))
def test_encoder_is_canonical(ids, extra):
    """Order and repeats do not matter; the set comes back decoded."""
    sig = edge_signature(ids)
    repeats = [i for i in extra if i in ids]
    assert sig == edge_signature(sorted(ids, reverse=True) + repeats)
    assert sig_ids(sig) == ids
    assert (sig == edge_signature(ids | set(extra))) == (set(extra) <= ids)


def test_empty_signatures():
    empty = edge_signature(())
    assert empty == (0, b"")
    assert TEL([], [], []).signature() == empty
    loops = TEL([1, 2], [1, 2], [1, 2])  # self-loops only
    assert loops.n_edges == 0 and loops.signature() == empty
    tel = TEL([1], [2], [1])
    tcd_operation(tel, 0, 2, 2)
    assert tel.signature() == empty


def test_self_loops_inside_the_span_are_zero_bits():
    edges = SELF_LOOP_GRAPHS[1]  # loops at positions 1 and 5
    tel = TEL(*arrays_of(edges))
    first, bits = tel.signature()
    assert first == 0 and bits == bytes([0b00011101])
    assert sig_ids((first, bits)) == {0, 2, 3, 4}
