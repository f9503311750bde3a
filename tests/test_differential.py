"""Differential test of all five TCQ implementations on adversarial graphs.

The brute-force reference, TCD, OTCD and iPHC must return the same core
edge sets (and TTIs); the distributed query must return the driver
OTCD's ``(tti, |V|, |E|, first_ts)`` rows. Graphs are drawn with
self-loops and parallel edges over 6 vertices and 6 ticks, so small
windows, empty ``T^k`` and spans shorter than the anchor fan-out's
partition count all come up; the pinned examples make sure each does.
"""
from operator import itemgetter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.otcd import otcd_query, tcd_query
from repro.phc.baseline import iphc_query
from repro.phc.index import build_phc_index
from repro.sparkdist.tcq import distributed_tcq_pdf

from . import reference as ref
from .util import core_edges, edges_pdf, tel_of

edge_st = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 6))
# Time-sorted (stable), the input model every implementation shares.
edges_st = st.lists(edge_st, min_size=1, max_size=24).map(
    lambda es: sorted(es, key=itemgetter(2))
)
window_st = st.tuples(st.integers(1, 6), st.integers(1, 6)).map(
    lambda w: tuple(sorted(w))
)
TRIANGLE = [(0, 1, 2), (1, 2, 2), (0, 2, 3)]


@settings(max_examples=25, derandomize=True, deadline=None)
@given(edges=edges_st, k=st.integers(1, 4), window=window_st)
# Self-loops (on a core vertex and on a pendant) and parallel edges.
@example(
    edges=[(0, 0, 1), (0, 1, 1), (0, 1, 1), (1, 2, 2), (0, 2, 2), (2, 2, 3), (2, 3, 3)],
    k=2, window=(1, 3),
)
# A single-tick window.
@example(edges=TRIANGLE + [(2, 3, 3), (0, 3, 3), (1, 3, 3)], k=2, window=(3, 3))
# k above the maximum degree: T^k is empty.
@example(edges=TRIANGLE, k=4, window=(1, 6))
# Degrees reach k but no k-core exists (a path): T^k is empty.
@example(edges=[(0, 1, 1), (1, 2, 2), (2, 3, 3)], k=2, window=(1, 3))
# A window holding no edge at all.
@example(edges=[(0, 1, 1), (1, 2, 1), (0, 2, 6)], k=1, window=(2, 5))
# A two-row span, fewer anchor rows than the fan-out has partitions.
@example(edges=TRIANGLE + [(0, 1, 3), (2, 3, 4), (0, 3, 4)], k=2, window=(3, 4))
# Cell [1, 3] induces a core with TTI [1, 2]: PoR may skip cell [1, 2]
# only, as the triangle of cell [1, 1] is another core.
@example(
    edges=[(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 2), (0, 3, 2), (4, 5, 3)],
    k=2, window=(1, 3),
)
def test_five_implementations_agree(spark, edges, k, window):
    Ts, Te = window
    want = ref.distinct_cores(edges, k, Ts, Te)
    tel = tel_of(edges, Ts, Te)
    index = build_phc_index(edges, k, Ts, Te)
    driver = {
        "TCD": tcd_query(tel, k, Ts, Te),
        "OTCD": otcd_query(tel, k, Ts, Te),
        "iPHC": iphc_query(edges, index, k, Ts, Te),
    }
    for name, res in driver.items():
        got = {core_edges(edges, c): c.tti for c in res.cores}
        assert got == want, name
        assert len(got) == len(res.cores), name

    got = distributed_tcq_pdf(spark, spark.createDataFrame(edges_pdf(edges)), k, Ts, Te)
    cols = ["tti_s", "tti_e", "n_vertices", "n_edges", "first_ts"]
    assert sorted(got[cols].itertuples(index=False, name=None)) == sorted(
        (*c.tti, c.n_vertices, c.n_edges, c.ts) for c in driver["OTCD"].cores
    )
