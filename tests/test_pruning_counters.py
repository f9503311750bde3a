"""Table 4's counters are exact: every ``QueryStats`` field of OTCD equals
that of a cell-set model of Algorithm 3 that holds pruned cells as a
Python set and induces every cell with the brute-force oracle."""
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.otcd import otcd_query
from repro.core.records import QueryStats

from . import reference as ref
from .util import bursty_temporal_graph, random_temporal_graph, tel_of


def model_stats(edges, k, Ts, Te, lo, hi, min_strength) -> QueryStats:
    """Algorithm 3 over anchor rows ``lo..hi`` of TCQ(G, k, [Ts, Te]):
    the rules in trigger order, each marking its full region of
    ``(row, col)`` cells clipped to rows ``<= hi``; a row starts at its
    largest unpruned column; an empty ``[ts, Te]`` ends the sweep; an
    empty cell ends its row."""
    span = Te - Ts + 1
    s = QueryStats(cells_total=span * (span + 1) // 2)
    pruned: set[tuple[int, int]] = set()
    ttis = set()

    def tti(ts, te):
        core = ref.temporal_kcore(edges, k, ts, te, min_strength=min_strength)
        times = [t for *_, t in core]
        return (min(times), max(times)) if times else None

    def mark(cells) -> int:
        new = set(cells) - pruned
        pruned.update(new)
        return len(new)

    def next_col(ts, te):
        return next((c for c in range(te, ts - 1, -1) if (ts, c) not in pruned), None)

    for ts in range(lo, hi + 1):
        te = next_col(ts, Te)
        if te is None:
            continue
        s.cells_evaluated += 1  # the row-start chain step [ts, Te]
        if tti(ts, Te) is None:
            break
        s.rows_started += 1
        while te is not None:
            if te < Te:
                s.cells_evaluated += 1
            cur = tti(ts, te)
            if cur is None:
                break
            ttis.add(cur)
            ts_p, te_p = cur
            if te_p < te:
                s.por_triggers += 1
                s.por_pruned += mark((ts, c) for c in range(te_p, te))
            if ts_p > ts:
                s.pou_triggers += 1
                s.pou_pruned += mark(
                    (r, c) for r in range(ts + 1, min(ts_p, hi) + 1)
                    for c in range(r, te + 1)
                )
            if ts_p > ts and te_p < te:
                s.pol_triggers += 1
                s.pol_pruned += mark(
                    (r, c) for r in range(ts_p + 1, min(te_p, hi) + 1)
                    for c in range(te_p + 1, te + 1)
                )
            te = next_col(ts, te - 1)
    s.cores_collected = len(ttis)
    return s


N_TICKS = 16


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    # (generator, edge count): sparse graphs leave empty ticks, so TTIs
    # shrink on both sides (PoU/PoL); a burst nests cores inside noise.
    shape=st.sampled_from(
        [("random", 12), ("random", 60), ("bursty", 0), ("bursty", 6), ("bursty", 20)]
    ),
    k=st.integers(1, 3),
    Ts=st.integers(1, 10),
    width=st.integers(2, N_TICKS - 1),
    cut=st.tuples(st.integers(0, N_TICKS), st.integers(0, N_TICKS)),
    min_strength=st.sampled_from([1, 2]),
)
# A row whose later PoU trigger reaches rows past its earlier one.
@example(seed=4, shape=("random", 12), k=1, Ts=1, width=8, cut=(0, 0), min_strength=2)
# PoR ranges that overlap PoU/PoL marks of earlier rows: PoR counts
# only the cells no earlier row marked.
@example(seed=0, shape=("random", 12), k=2, Ts=1, width=15, cut=(0, 0), min_strength=1)
def test_stats_equal_cell_set_model(seed, shape, k, Ts, width, cut, min_strength):
    kind, n = shape
    if kind == "bursty":
        edges = bursty_temporal_graph(
            seed, n_vertices=12, n_background=n, n_ticks=N_TICKS,
            burst_members=5, burst_edges=30, burst_window=(6, 9),
        )
    else:
        edges = random_temporal_graph(seed, n_vertices=7, n_edges=n, n_ticks=N_TICKS)
    Te = min(N_TICKS, Ts + width)
    lo = Ts + cut[0] % (Te - Ts + 1)
    hi = Te - cut[1] % (Te - lo + 1)
    res = otcd_query(
        tel_of(edges, Ts, Te), k, Ts, Te, rows=(lo, hi), min_strength=min_strength
    )
    assert res.stats == model_stats(edges, k, Ts, Te, lo, hi, min_strength)
