"""Temporal Edge List (TEL) — the paper's in-memory temporal-graph structure.

A TEL (paper §5.1, Figure 5) organises the temporal edges of a graph in
three dimensions, each supporting O(1) manipulation: the **TL** (edges
by timestamp), the **SL/DL** (edges by endpoint) and the timeline of
non-empty timestamps whose two ends are the TTI. Because edge ids are
time-sorted (the input model below), all three are flat arrays here.

**Shared index.** ``TEL(...)`` builds one immutable :class:`_Index` per
window with NumPy; ``copy()`` shares it. Local *positions* ``0..n-1``
number the window's edges in id order. Per edge (4-byte ints): its
vertex-pair id ``pair`` (-1 for a self-loop), the previous and the next
position of the same pair ``prev``/``next`` (-1 and ``n`` past the pair's
ends and for a self-loop) and two CSR incidence entries ``inc`` (the
SL/DL), 20 B in all; the global id of a position is ``ids[pos]``, a
``range`` (0 B). Per distinct timestamp: its value
``tvals`` (8 B) and the first position ``tstart`` (4 B), so the
timestamp of a position is one ``bisect`` away; per pair its dense
endpoints ``pu/pv``; per vertex its label ``labels`` (8 B) and
``inc_ptr``. Positions, pair ids, links and incidence entries are int32,
so a window holds at most 2**30 - 1 edges; ``TEL(...)`` rejects a larger
one. Both build sorts sort unique composite keys (:func:`_sort_stably`).

**Per-copy state.** A TEL holds only flat counters of its own, so
``copy()`` is a few memcpys: ``alive`` (1 B per edge), distinct alive
neighbours per vertex ``deg`` (4 B), the counts ``n_edges``/``n_vertices``
and ``head``/``tail``, position bounds of the alive edges that only move
inwards: ``truncate`` moves them past the positions it drops, and
``get_tti`` tightens them to the first and last alive positions with
``alive.find``/``rfind`` (a C scan, O(1) amortised) and maps those two to
their timestamps. ``alive`` is exact inside ``[head, tail]`` only: there
a position is alive exactly when its pair is, and no other state records
a dead pair. Everything reads only those positions, so a core collected
from a large window costs its TTI's positions, not the window's.

**Pair cuts.** Every deletion (cuts, ``drop_weak_pairs``, peeling) kills
whole pairs, so a cut from the left kills exactly the pairs whose last
alive position it reaches, and a cut from the right those whose first it
reaches; their other edges lie past the new bound and keep stale
``alive`` bytes. Inside ``[head, tail]`` a pair's last alive position is
the one whose ``next`` lies past ``tail``, and its first the one whose
``prev`` lies before ``head``, so a cut subtracts the alive bytes of its
range from ``n_edges`` and kills the pairs of those positions in the
range, with no state of its own: any sequence of cuts from either side
on any copy reads the same two links. Every kill goes through one
kernel, ``_kill``, which takes a batch of pairs: a Python loop below
``_BATCH`` pairs, NumPy endpoint counts from there on. It pushes every
vertex whose degree drops below the TEL's threshold ``k`` on a worklist,
and peeling runs in rounds: a round clears the alive positions inside
``[head, tail]`` of every worklist vertex and kills their pairs in one
kernel call, whose pushes make the next round.

**Input model.** A temporal graph is three parallel edge arrays
``edge_u/edge_v/edge_t`` of integers sorted by ``t`` (non-decreasing,
ties in arrival order), and an edge's id is its position. Sortedness
makes every window ``G_[ts,te]`` a contiguous id range that
:func:`repro.core.tcd.window_ids` cuts by binary search and a truncation
one position range. ``TEL(...)`` raises ``ValueError`` on columns of
different lengths, ids that are not a contiguous range inside them,
non-integer values, values past int64 or ids not sorted by time. Self-loops
``(v, v, t)`` keep their id but never join a TEL: degree counts distinct
*other* vertices. A TEL reads the arrays once, while it builds its
index, and keeps no reference to them; the index is never mutated after
the build. A dynamic graph (paper §6.1) appends new edges, in time
order, to arrays of its caller and cuts the next query's window again:
ids stay positions, and ``TEL(...)`` rejects a window holding an
out-of-order append.
"""
from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import compress
from typing import Sequence

import numpy as np

from .records import Signature, edge_signature


def _column(seq: Sequence, ids: range, what: str) -> np.ndarray:
    """``seq[ids.start:ids.stop]`` as int64, reading only those entries."""
    part = seq if (ids.start, ids.stop) == (0, len(seq)) else seq[ids.start:ids.stop]
    a = np.asarray(part)
    if a.size and a.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers (got dtype {a.dtype})")
    if a.size and a.dtype.kind == "u" and a.max() > np.iinfo(np.int64).max:
        raise ValueError(f"{what} must fit in int64 (got {a.max()})")
    return a.astype(np.int64, copy=False)


def _run_starts(s: np.ndarray) -> np.ndarray:
    """Mask of the entries of sorted ``s`` that differ from their predecessor."""
    first = np.empty(len(s), bool)
    first[:1] = True
    np.not_equal(s[1:], s[:-1], out=first[1:])
    return first


def _sort_stably(keys: np.ndarray) -> np.ndarray:
    """Sort int64 ``keys`` in place; return the stable argsort that did it.

    NumPy's default sort of unique int64 keys runs several times faster
    than its stable timsort, so the keys sort as the unique composites
    ``(key - min) << s | i`` with ``2**s >= n``, whose order is the stable
    one and whose low ``s`` bits are the argsort. Keys whose composite
    could overflow int64 take the stable sort instead."""
    n = len(keys)
    if not n:
        return np.arange(0)
    lo = int(keys.min())
    s = (n - 1).bit_length()
    if (int(keys.max()) - lo + 1) << s > 2**63:
        order = np.argsort(keys, kind="stable")
        keys[:] = keys[order]
        return order
    order = np.arange(n)
    keys -= lo
    keys <<= s
    keys |= order
    keys.sort()
    np.bitwise_and(keys, (1 << s) - 1, out=order)
    u = keys.view(np.uint64)  # NumPy shifts unsigned ints faster
    u >>= np.uint64(s)
    keys += lo
    return order


# The largest value the index's int32 arrays hold: positions reach the
# window's edge count n and incidence entries 2n, so a window holds at most
# half of it.
_INT32_MAX = 2**31 - 1

# A kill of fewer pairs, or a peel round of fewer vertices, runs as a Python
# loop, which costs less than the ten-odd NumPy calls of the batch path. On
# the sf=1 Table-6 scan the median cut kills 10 pairs and 93% of all kills
# fall in cuts of 64 or more; there, cutoffs of 16 and 256 timed slower than
# 64 and the batch path alone slowest, and the 20 Table-3 queries' OTCD
# answers timed alike from 64 to 256 and slower below 32.
_BATCH = 64


def _mv(a: np.ndarray, dtype=np.int32) -> memoryview:
    """Read-only view whose items index as Python ints."""
    return memoryview(np.ascontiguousarray(a, dtype=dtype)).toreadonly()


class _Index:
    """The immutable per-window arrays every copy of a TEL shares (see the
    module docstring): read-only views whose ``.obj`` is the NumPy array
    behind them."""

    __slots__ = (
        "ids", "tvals", "tstart", "pair", "prev", "next", "pu", "pv",
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
        "ix", "alive", "deg", "head", "tail",
        "n_edges", "n_vertices", "k", "worklist",
    )

    def __init__(
        self,
        edge_u: Sequence[int],
        edge_v: Sequence[int],
        edge_t: Sequence[int],
        eids: range | None = None,
    ) -> None:
        n_all = len(edge_t)
        eids = range(n_all) if eids is None else eids
        if not (len(edge_u) == len(edge_v) == n_all and isinstance(eids, range)
                and eids.step == 1 and 0 <= eids.start <= eids.stop <= n_all):
            raise ValueError(
                f"edge columns of lengths {len(edge_u)}/{len(edge_v)}/{n_all} "
                f"with ids {eids!r}: the columns must be equally long and the "
                "ids a contiguous range inside them"
            )
        if 2 * len(eids) > _INT32_MAX:
            raise ValueError(
                f"a window of {len(eids):,} edge ids is too large: the index "
                "stores positions and incidence entries (two per edge) as int32, "
                f"so a window holds at most {_INT32_MAX // 2:,} edges"
            )
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
        del t, first, tstart

        # Dense vertex ids in label order over the non-loop edges. The same
        # stable sort of the endpoints gives the SL/DL: a CSR incidence
        # listing each vertex's edges.
        u = _column(edge_u, eids, "vertex ids")
        v = _column(edge_v, eids, "vertex ids")
        keep = u != v
        loops = not keep.all()
        if loops:
            u, v = u[keep], v[keep]
        m = len(u)
        both = np.concatenate((u, v))
        del u, v
        order = _sort_stably(both)
        first = _run_starts(both)
        ix.labels = _mv(both[first], np.int64)
        del both
        starts = np.flatnonzero(first)
        nv = len(starts)
        ix.inc_ptr = _mv(np.append(starts, 2 * m))
        dense = np.empty(2 * m, np.int32)
        dense[order] = np.cumsum(first, dtype=np.int32) - 1
        del first, starts
        np.remainder(order, max(m, 1), out=order)
        if loops:
            order = np.flatnonzero(keep)[order]
        ix.inc = _mv(order)
        del order

        # Vertex pairs: one stable sort of the pair keys numbers the pairs in
        # key order and links each position to the previous and next
        # position of its pair (-1 and n past the ends, and for self-loops).
        du, dv = dense[:m], dense[m:]
        key = np.minimum(du, dv).astype(np.int64)
        key *= nv
        key += np.maximum(du, dv)
        del dense, du, dv
        order = _sort_stably(key)
        first = _run_starts(key)
        pu, pv = np.divmod(key[first], max(nv, 1))
        ix.pu, ix.pv = _mv(pu), _mv(pv)
        del key, pu, pv
        if loops:
            order = np.flatnonzero(keep)[order]
        pair = np.full(n, -1, np.int32)
        pair[order] = np.cumsum(first, dtype=np.int32) - 1
        ix.pair = _mv(pair)
        same = ~first[1:]
        del first
        a, b = order[:-1][same], order[1:][same]
        del order, same
        prev, nxt = np.full(n, -1, np.int32), np.full(n, n, np.int32)
        prev[b], nxt[a] = a, b
        ix.prev, ix.next = _mv(prev), _mv(nxt)
        del a, b

        self.alive = bytearray(keep) if loops else bytearray(b"\x01") * n
        deg = np.bincount(ix.pu.obj, minlength=nv) + np.bincount(ix.pv.obj, minlength=nv)
        self.deg = array("i", deg.astype(np.int32).tobytes())
        self.head, self.tail = 0, n - 1
        self.n_edges = m
        self.n_vertices = nv
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
        cp.deg = self.deg[:]
        cp.head, cp.tail = self.head, self.tail
        cp.n_edges, cp.n_vertices = self.n_edges, self.n_vertices
        cp.k = self.k
        cp.worklist = self.worklist[:]
        return cp

    # -- manipulations (paper Table 1) -------------------------------------

    def _bounds(self) -> tuple[int, int]:
        """Tighten ``head``/``tail`` to the first and last alive positions
        (the TEL must hold an edge)."""
        alive, end = self.alive, self.tail + 1
        h = self.head = alive.find(1, self.head, end)
        t = self.tail = alive.rfind(1, h, end)
        return h, t

    def get_tti(self) -> tuple[int, int] | None:
        """Timestamps of the first and last alive edges (``None`` if empty)."""
        if not self.n_edges:
            return None
        h, t = self._bounds()
        tvals, tstart = self.ix.tvals, self.ix.tstart
        return tvals[bisect_right(tstart, h) - 1], tvals[bisect_right(tstart, t) - 1]

    def _kill(self, pairs: list[int] | np.ndarray) -> None:
        """Kill ``pairs``, distinct alive pair ids: their endpoints lose a
        neighbour each, and every vertex whose degree falls below ``k`` is
        pushed on the worklist. Their edges are the caller's, and a pair is
        dead once they are cleared: nothing else records it. A batch of
        ``_BATCH`` or more counts the endpoints with NumPy."""
        ix = self.ix
        if len(pairs) < _BATCH:
            deg, pu, pv = self.deg, ix.pu, ix.pv
            below = self.k - 1
            wl = self.worklist
            gone = 0
            for p in pairs if isinstance(pairs, list) else pairs.tolist():
                for a in (pu[p], pv[p]):
                    d = deg[a] - 1
                    deg[a] = d
                    if d == below:
                        wl.append(a)
                    elif not d:
                        gone += 1
            self.n_vertices -= gone
            return
        pairs = np.asarray(pairs, np.intp)
        ends, lost = np.unique(
            np.concatenate((ix.pu.obj[pairs], ix.pv.obj[pairs])), return_counts=True
        )
        deg = np.frombuffer(self.deg, np.intc)
        old = deg[ends]
        new = old - lost
        deg[ends] = new
        k = self.k
        self.worklist += ends[(old >= k) & (new < k)].tolist()
        self.n_vertices -= int(np.count_nonzero(new == 0))

    def _cut(self, a: int, b: int, left: bool) -> None:
        """Delete the alive edges of positions ``[a, b)``, a prefix (``left``)
        or a suffix of ``[head, tail]``, by killing the pairs whose alive
        edges all lie in the range: those of the alive positions whose next
        link lies past ``tail`` (``left``) or whose previous link lies
        before ``head``."""
        self.n_edges -= self.alive.count(1, a, b)
        if left:
            dying = self.ix.next.obj[a:b] > self.tail
        else:
            dying = self.ix.prev.obj[a:b] < self.head
        dying &= np.frombuffer(self.alive, np.bool_, b - a, a)
        pos = dying.nonzero()[0]
        pos += a
        self._kill(self.ix.pair.obj[pos])

    def truncate(self, ts: int, te: int) -> None:
        """Delete the edges outside ``[ts, te]``: the positions from ``head``
        up to the first position at or after ``ts`` and those from the first
        position after ``te`` down to ``tail``."""
        tvals, tstart = self.ix.tvals, self.ix.tstart
        h, t = self.head, self.tail
        b = tstart[bisect_left(tvals, ts)]
        if b > t:  # min and max calls cost more than the common no-op
            b = t + 1
        if b > h:
            self._cut(h, b, True)
            self.head = h = b
        a = tstart[bisect_right(tvals, te)]
        if a < h:
            a = h
        if a <= t:
            self._cut(a, t + 1, False)
            self.tail = a - 1

    def drop_weak_pairs(self, min_strength: int) -> None:
        """Delete every pair with fewer than ``min_strength`` alive edges,
        counted in one pass over ``[head, tail]``."""
        a, b = self.head, self.tail + 1
        alive = np.frombuffer(self.alive, np.bool_, b - a, a)
        pos = alive.nonzero()[0]
        pairs = self.ix.pair.obj[pos + a]
        count = np.bincount(pairs, minlength=len(self.ix.pu))
        weak = pos[count[pairs] < min_strength]
        alive[weak] = False
        self.n_edges -= len(weak)
        self._kill(np.flatnonzero((count > 0) & (count < min_strength)))

    def peel(self, k: int) -> None:
        """Delete every vertex with fewer than ``k`` distinct neighbours,
        repeatedly (the k-core). The worklist holds every vertex whose
        degree fell below the threshold ``self.k``; a higher ``k`` rescans
        the degrees, and ``k <= 1`` has nothing to peel and keeps the
        worklist for the next call. Peeling runs in rounds: a round clears
        the alive positions inside ``[head, tail]`` of every worklist vertex
        still below ``k`` (with NumPy from ``_BATCH`` vertices on) and kills
        their pairs in one call, whose pushes make the next round's
        worklist."""
        if k <= 1:
            return
        if k > self.k:
            deg = np.frombuffer(self.deg, np.intc)
            self.worklist = np.flatnonzero((deg > 0) & (deg < k)).tolist()
        self.k = k
        if not self.worklist:
            return
        ix = self.ix
        inc, ptr, pair, nxt = ix.inc, ix.inc_ptr, ix.pair, ix.next
        alive, deg, h, t = self.alive, self.deg, self.head, self.tail
        while self.worklist:
            wl, self.worklist = self.worklist, []
            if len(wl) < _BATCH:
                dead = []
                for v in wl:
                    if 0 < deg[v] < k:  # pushed under a higher k, it may be in the core
                        mine = [i for i in inc[ptr[v]:ptr[v + 1]] if h <= i <= t and alive[i]]
                        for i in mine:
                            alive[i] = 0
                        dead += mine
                pairs = [pair[i] for i in dead if nxt[i] > t]
            else:
                w = np.array(wl)
                d = np.frombuffer(deg, np.intc)[w]
                w = w[(d > 0) & (d < k)]
                lo = ptr.obj[w]
                n = ptr.obj[w + 1] - lo
                # The incidence ranges [lo, lo + n) of w, concatenated.
                at = np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())
                dead = inc.obj[at]
                dead = dead[(dead >= h) & (dead <= t)]
                on = np.frombuffer(alive, np.bool_)
                dead = np.unique(dead[on[dead]])  # an edge inside w is listed twice
                on[dead] = False
                pairs = pair.obj[dead[nxt.obj[dead] > t]]
            self.n_edges -= len(dead)
            # A pair's last position inside [h, t] names it once.
            self._kill(pairs)

    # -- derived views -----------------------------------------------------

    def vertices(self) -> set[int]:
        """Vertices with at least one incident alive edge."""
        return set(compress(self.ix.labels, self.deg))

    def degrees(self) -> dict[int, int]:
        """Distinct alive neighbours of every vertex in :meth:`vertices`."""
        return {x: d for x, d in zip(self.ix.labels, self.deg) if d}

    def signature(self) -> Signature:
        """Edge-set identity of the represented subgraph: the global id of
        the first alive edge and the packed alive bits from it to the last
        (the format of :func:`repro.core.records.edge_signature`)."""
        if not self.n_edges:
            return edge_signature(())
        h, t = self._bounds()
        bits = np.frombuffer(self.alive, np.uint8, t + 1 - h, h)
        return self.ix.ids[h], np.packbits(bits, bitorder="little").tobytes()
