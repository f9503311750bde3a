"""Temporal Edge List (TEL) — the paper's in-memory temporal-graph structure.

A TEL (paper §5.1, Figure 5) organises the temporal edges of a graph in
three dimensions, each supporting O(1) manipulation: the **TL** (edges
by timestamp), the **SL/DL** (edges by endpoint) and the timeline of
non-empty timestamps whose two ends are the TTI. Because edge ids are
time-sorted (the input model below), all three are flat arrays here.

**Shared index.** ``TEL(...)`` builds one immutable :class:`_Index` per
window with NumPy; ``copy()`` shares it. Local *positions* ``0..n-1``
number the window's edges in id order. Per edge (4-byte ints unless
noted): its timestamp index ``tix``, its vertex-pair id ``pair`` (-1 for
a self-loop) and two CSR incidence entries ``inc`` (the SL/DL), 16 B in
all; the global id of a position is ``ids[pos]``, a ``range`` (0 B).
Per distinct timestamp: its value ``tvals`` (8 B) and the first
position ``tstart`` (4 B); per pair its dense endpoints ``pu/pv``; per
vertex its label ``labels`` (8 B) and ``inc_ptr``.

**Per-copy state.** A TEL holds only flat counters of its own, so
``copy()`` is a few memcpys: ``alive`` (1 B per edge), alive edges per
timestamp ``tcount``, parallel edges per alive pair ``mult`` and
distinct alive neighbours per vertex ``deg`` (4 B each), plus head/tail
timestamp indices that only move inwards: ``get_tti`` skips empty
timestamps lazily, O(1) amortised. Peeling uses a *below-k worklist*:
every vertex whose degree drops below the TEL's threshold ``k`` is
pushed once. ``signature()`` and ``drop_weak_pairs`` read only the live
position range ``[tstart[head], tstart[tail + 1])``, so a core
collected from a large window costs its TTI's positions, not the
window's.

**Input model.** A temporal graph is three parallel edge arrays
``edge_u/edge_v/edge_t`` of integers sorted by ``t`` (non-decreasing,
ties in arrival order), and an edge's id is its position. Sortedness
makes every window ``G_[ts,te]`` a contiguous id range that
:func:`repro.core.tcd.window_ids` cuts by binary search and a truncation
one position range. ``TEL(...)`` raises ``ValueError`` on non-integer
values or ids that are not time-sorted. Self-loops ``(v, v, t)`` keep
their id but never join a TEL: degree counts distinct *other* vertices.
A TEL reads the arrays once, while it builds its index, and keeps no
reference to them; the index is never mutated after the build. A
dynamic graph (paper §6.1) appends new edges, in time order, to arrays
of its caller and cuts the next query's window again: ids stay
positions, and ``TEL(...)`` rejects a window holding an out-of-order
append.
"""
from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import compress
from typing import Iterable, Sequence

import numpy as np
import pandas as pd


def _column(seq: Sequence, ids: range, what: str) -> np.ndarray:
    """``seq[ids.start:ids.stop]`` as int64, reading only those entries."""
    part = seq if (ids.start, ids.stop) == (0, len(seq)) else seq[ids.start:ids.stop]
    a = np.asarray(part)
    if a.size and a.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers (got dtype {a.dtype})")
    return a.astype(np.int64, copy=False)


def _run_starts(s: np.ndarray) -> np.ndarray:
    """Mask of the entries of sorted ``s`` that differ from their predecessor."""
    first = np.empty(len(s), bool)
    first[:1] = True
    np.not_equal(s[1:], s[:-1], out=first[1:])
    return first


def _mv(a: np.ndarray, dtype=np.int32) -> memoryview:
    """Read-only view whose items index as Python ints."""
    return memoryview(np.ascontiguousarray(a, dtype=dtype)).toreadonly()


def _counts(a: np.ndarray) -> array:
    return array("i", a.astype(np.int32).tobytes())


class _Index:
    """The immutable per-window arrays every copy of a TEL shares (see the
    module docstring)."""

    __slots__ = (
        "ids", "tvals", "tstart", "tix", "pair", "pu", "pv",
        "inc_ptr", "inc", "labels",
    )


class TEL:
    """Temporal Edge List over edges ``(u, v, t)`` with stable edge ids.

    Edge ids are positions in the ``edge_u/edge_v/edge_t`` arrays every
    TEL of the same base graph is cut from, so edge-set signatures are
    comparable across copies and across processes that rebuilt the
    arrays deterministically. ``eids`` is the id range to index (default
    all; :func:`repro.core.tcd.window_tel` passes a window's); self-loops
    in it are skipped.
    """

    __slots__ = (
        "ix", "alive", "tcount", "mult", "deg", "head", "tail",
        "n_edges", "nv", "k", "worklist",
    )

    def __init__(
        self,
        edge_u: Sequence[int],
        edge_v: Sequence[int],
        edge_t: Sequence[int],
        eids: range | None = None,
    ) -> None:
        if eids is None:
            eids = range(len(edge_u))
        ix = self.ix = _Index()
        ix.ids = eids

        # TL: timestamps and their position ranges.
        t = _column(edge_t, eids, "timestamps")
        n = len(t)
        if n > 1 and (t[1:] < t[:-1]).any():
            raise ValueError(
                "edge ids are not sorted by time; the input model requires "
                "time-sorted edge arrays (edge id = position)"
            )
        first = _run_starts(t)
        tstart = np.flatnonzero(first)
        ix.tvals = _mv(t[tstart], np.int64)
        ix.tstart = _mv(np.append(tstart, n))
        tix = np.cumsum(first, dtype=np.int32)
        tix -= 1
        ix.tix = _mv(tix)
        del t, first, tstart

        # Dense vertex ids in label order over the non-loop edges. The same
        # stable sort of the endpoints gives the SL/DL: a CSR incidence
        # listing each vertex's edges in position order.
        u = _column(edge_u, eids, "vertex ids")
        v = _column(edge_v, eids, "vertex ids")
        keep = u != v
        loops = not keep.all()
        if loops:
            u, v, tix = u[keep], v[keep], tix[keep]
        m = len(u)
        both = np.concatenate((u, v))
        del u, v
        order = np.argsort(both, kind="stable")
        both = both[order]
        first = _run_starts(both)
        ix.labels = _mv(both[first], np.int64)
        del both
        starts = np.flatnonzero(first)
        nv = len(starts)
        ix.inc_ptr = _mv(np.append(starts, 2 * m))
        ends = np.empty(2 * m, np.int32)
        ends[order] = np.cumsum(first, dtype=np.int32) - 1
        del first, starts
        np.remainder(order, max(m, 1), out=order)
        if loops:
            order = np.flatnonzero(keep)[order]
        ix.inc = _mv(order)
        del order

        # Vertex pairs: dense ids of the distinct endpoint pairs.
        du, dv = ends[:m], ends[m:]
        key = np.minimum(du, dv).astype(np.int64)
        key *= nv
        key += np.maximum(du, dv)
        del ends, du, dv
        pid, pkeys = pd.factorize(key)
        del key
        pu, pv = np.divmod(pkeys, max(nv, 1))
        ix.pu, ix.pv = _mv(pu), _mv(pv)
        if loops:
            pair = np.full(n, -1, np.int32)
            pair[keep] = pid
            ix.pair = _mv(pair)
        else:
            ix.pair = _mv(pid)

        self.alive = bytearray(keep) if loops else bytearray(b"\x01") * n
        self.tcount = _counts(np.bincount(tix, minlength=len(ix.tvals)))
        self.mult = _counts(np.bincount(pid, minlength=len(pkeys)))
        self.deg = _counts(np.bincount(np.concatenate((pu, pv)), minlength=nv))
        self.head, self.tail = 0, len(ix.tvals) - 1
        self.n_edges = m
        self.nv = nv
        self.k = 0
        self.worklist: list[int] = []

    # -- factories ---------------------------------------------------------

    def copy(self) -> "TEL":
        """An independent TEL over the currently-alive edges: shares the
        index, copies the per-copy counters. Used by (O)TCD to start each
        anchor row from ``T^k_[ts, Te]`` without disturbing the row-start
        chain instance (paper §5.2 keeps exactly these two in memory)."""
        cp = TEL.__new__(TEL)
        cp.ix = self.ix
        cp.alive = self.alive[:]
        cp.tcount = self.tcount[:]
        cp.mult = self.mult[:]
        cp.deg = self.deg[:]
        cp.head, cp.tail = self.head, self.tail
        cp.n_edges, cp.nv = self.n_edges, self.nv
        cp.k = self.k
        cp.worklist = self.worklist[:]
        return cp

    # -- manipulations (paper Table 1) -------------------------------------

    def get_tti(self) -> tuple[int, int] | None:
        """Timestamps of the first and last non-empty TL (``None`` if empty)."""
        if not self.n_edges:
            return None
        tcount = self.tcount
        h, t = self.head, self.tail
        while not tcount[h]:
            h += 1
        while not tcount[t]:
            t -= 1
        self.head, self.tail = h, t
        tvals = self.ix.tvals
        return (tvals[h], tvals[t])

    def _drop(self, positions: Iterable[int]) -> None:
        """Delete the alive edges among ``positions``: update ``tcount``,
        pair multiplicities and degrees, and push every vertex whose degree
        falls below ``k`` on the worklist."""
        alive, tcount, mult, deg = self.alive, self.tcount, self.mult, self.deg
        ix = self.ix
        tix, pair, pu, pv = ix.tix, ix.pair, ix.pu, ix.pv
        below = self.k - 1
        wl = self.worklist
        n = gone = 0
        for i in positions:
            if alive[i]:
                alive[i] = 0
                n += 1
                tcount[tix[i]] -= 1
                p = pair[i]
                m = mult[p] - 1
                mult[p] = m
                if not m:  # last parallel edge: the two stop being neighbours
                    for a in (pu[p], pv[p]):
                        d = deg[a] - 1
                        deg[a] = d
                        if d == below:
                            wl.append(a)
                        elif not d:
                            gone += 1
        self.n_edges -= n
        self.nv -= gone

    def del_edge(self, e: int) -> None:
        """Delete the edge with global id ``e`` (no-op if not alive)."""
        ids = self.ix.ids
        if e in ids:
            self._drop((e - ids.start,))

    def truncate(self, ts: int, te: int) -> None:
        """Delete the edges outside ``[ts, te]``: two position ranges."""
        ix = self.ix
        tvals, tstart, alive = ix.tvals, ix.tstart, self.alive
        h, t = self.head, self.tail
        h1 = bisect_left(tvals, ts, h, t + 1)
        if h1 > h:
            a, b = tstart[h], tstart[h1]
            self._drop(compress(range(a, b), alive[a:b]))
            self.head = h = h1
        t1 = bisect_right(tvals, te, h, t + 1) - 1
        if t1 < t:
            a, b = tstart[t1 + 1], tstart[t + 1]
            self._drop(compress(range(a, b), alive[a:b]))
            self.tail = t1

    def drop_weak_pairs(self, min_strength: int) -> None:
        """Delete every pair with fewer than ``min_strength`` alive edges.
        Multiplicities only fall, so one pass over the alive edges finds
        them all."""
        mult, pair = self.mult, self.ix.pair
        live = self._live()
        self._drop([
            i for i in compress(live, self.alive[live.start:live.stop])
            if mult[pair[i]] < min_strength
        ])

    def peel(self, k: int) -> None:
        """Delete every vertex with fewer than ``k`` distinct neighbours,
        repeatedly (the k-core). The worklist holds every vertex whose
        degree fell below the threshold ``self.k``; a higher ``k`` rescans
        the degrees, and ``k <= 1`` has nothing to peel and keeps the
        worklist for the next call."""
        if k <= 1:
            return
        deg = self.deg
        if k > self.k:
            self.worklist = [v for v, d in enumerate(deg) if 0 < d < k]
        self.k = k
        ix = self.ix
        inc, ptr = ix.inc, ix.inc_ptr
        wl = self.worklist
        while wl:
            v = wl.pop()
            if 0 < deg[v] < k:
                self._drop(inc[ptr[v]:ptr[v + 1]])

    # -- derived views -----------------------------------------------------

    def is_empty(self) -> bool:
        return self.n_edges == 0

    def vertices(self) -> set[int]:
        """Vertices with at least one incident alive edge."""
        return set(compress(self.ix.labels, self.deg))

    def n_vertices(self) -> int:
        return self.nv

    def degrees(self) -> dict[int, int]:
        """Distinct alive neighbours of every vertex in :meth:`vertices`."""
        return {x: d for x, d in zip(self.ix.labels, self.deg) if d}

    def _live(self) -> range:
        """The live position range ``[tstart[head], tstart[tail + 1])``
        (empty for an empty TEL)."""
        if self.get_tti() is None:
            return range(0)
        tstart = self.ix.tstart
        return range(tstart[self.head], tstart[self.tail + 1])

    def signature(self) -> frozenset[int]:
        """Edge-set identity of the represented subgraph: alive edge ids."""
        live = self._live()
        a, b = live.start, live.stop
        return frozenset(compress(self.ix.ids[a:b], self.alive[a:b]))

    def timestamps(self) -> list[int]:
        """Timestamps with at least one alive edge, ascending."""
        h, t = self.head, self.tail + 1
        return list(compress(self.ix.tvals[h:t], self.tcount[h:t]))
