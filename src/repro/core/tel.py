"""Temporal Edge List (TEL) — the paper's in-memory temporal-graph structure.

A TEL (paper §5.1, Figure 5) organises the temporal edges of a graph in
three dimensions, each supporting O(1) manipulation:

* **TL (Time List)** — edges grouped by timestamp; the non-empty
  timestamps are threaded on a doubly-linked *timeline* in ascending
  order, so ``get_TTI`` is a head/tail read and truncation walks the
  timeline from either end.
* **SL (Source List) / DL (Destination List)** — per-vertex adjacency:
  the edges whose source (resp. destination) is ``v``.

On top of the paper's structure we maintain, per vertex, a multiplicity
counter of *distinct neighbours* (temporal k-core degrees count neighbour
vertices, not parallel edges) and a lazy min-heap ``H_v`` over those
degrees, which Algorithm 4 uses to pop sub-``k`` vertices.

All mutating operations keep the invariant that a timestamp node exists
on the timeline iff its TL is non-empty, so the TTI of the represented
(sub)graph is always ``(head.t, tail.t)``.

**Input model.** A temporal graph is three parallel edge arrays
``edge_u/edge_v/edge_t`` sorted by ``t`` (non-decreasing, ties in arrival
order), and an edge's id is its position. Sortedness makes every window
``G_[ts,te]`` a contiguous id range that :func:`repro.core.tcd.window_ids`
cuts by binary search. Self-loops ``(v, v, t)`` keep their id but never
join a TEL: degree counts distinct *other* vertices. Arrays handed to a
TEL are shared, never mutated: a TEL copies them into lists of its own
before its first :meth:`TEL.add_edge`.
"""
from __future__ import annotations

import heapq
from typing import Iterable, Iterator, Sequence


class DegreeHeap:
    """Lazy min-heap of ``(degree, vertex)`` entries (the paper's H_v).

    Degree decreases push fresh entries; stale entries are discarded at
    pop time by comparing against the live degree map. This gives the
    O(log |V|) amortised maintenance the paper's complexity analysis
    assumes without intrusive heap surgery.
    """

    __slots__ = ("_heap", "_deg")

    def __init__(self, degrees: dict) -> None:
        self._deg = degrees
        self._heap = [(d, v) for v, d in degrees.items()]
        heapq.heapify(self._heap)

    def push(self, vertex) -> None:
        """Re-register ``vertex`` after its degree changed."""
        heapq.heappush(self._heap, (self._deg[vertex], vertex))

    def peek_degree(self):
        """Smallest live degree, or ``None`` if no vertices remain."""
        h = self._heap
        while h:
            d, v = h[0]
            live = self._deg.get(v)
            if live is None or live != d:
                heapq.heappop(h)
                continue
            return d
        return None

    def pop(self):
        """Pop the vertex with the smallest live degree (or ``None``)."""
        h = self._heap
        while h:
            d, v = heapq.heappop(h)
            live = self._deg.get(v)
            if live is not None and live == d:
                return v
        return None


class TEL:
    """Temporal Edge List over edges ``(u, v, t)`` with stable edge ids.

    Edge ids index into the ``edge_u/edge_v/edge_t`` arrays shared by
    every TEL derived from the same base graph, so edge-set signatures
    are comparable across copies and across processes that rebuilt the
    arrays deterministically. ``eids`` selects the edges to index (any
    order; :func:`repro.core.tcd.window_tel` passes a window's id range);
    self-loops among them are skipped.
    """

    __slots__ = (
        "edge_u", "edge_v", "edge_t", "owns_arrays",
        "alive", "tl", "next_t", "prev_t", "head_t", "tail_t",
        "sl", "dl", "nbr", "deg", "heap", "n_edges",
    )

    def __init__(
        self,
        edge_u: Sequence[int],
        edge_v: Sequence[int],
        edge_t: Sequence[int],
        eids: Iterable[int] | None = None,
    ) -> None:
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.edge_t = edge_t
        self.owns_arrays = False
        if eids is None:
            eids = range(len(edge_u))
        # TL: timestamp -> set of edge ids; timeline threaded via dicts.
        tl: dict[int, set[int]] = {}
        sl: dict[int, set[int]] = {}
        dl: dict[int, set[int]] = {}
        nbr: dict[int, dict[int, int]] = {}
        alive: set[int] = set()
        for e in eids:
            u, v, t = edge_u[e], edge_v[e], edge_t[e]
            if u == v:
                continue
            alive.add(e)
            tl.setdefault(t, set()).add(e)
            sl.setdefault(u, set()).add(e)
            dl.setdefault(v, set()).add(e)
            cu = nbr.setdefault(u, {})
            cu[v] = cu.get(v, 0) + 1
            cv = nbr.setdefault(v, {})
            cv[u] = cv.get(u, 0) + 1
        self.alive = alive
        self.tl = tl
        ts_sorted = sorted(tl)
        self.next_t = {}
        self.prev_t = {}
        for a, b in zip(ts_sorted, ts_sorted[1:]):
            self.next_t[a] = b
            self.prev_t[b] = a
        self.head_t = ts_sorted[0] if ts_sorted else None
        self.tail_t = ts_sorted[-1] if ts_sorted else None
        self.sl = sl
        self.dl = dl
        self.nbr = nbr
        self.deg = {v: len(c) for v, c in nbr.items()}
        self.heap = DegreeHeap(self.deg)
        self.n_edges = len(alive)

    # -- factories ---------------------------------------------------------

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int, int]]) -> "TEL":
        """Build a TEL from an iterable of ``(u, v, t)`` triples
        (edge id = position in ``edges``)."""
        us, vs, ts = [], [], []
        for u, v, t in edges:
            us.append(u)
            vs.append(v)
            ts.append(t)
        return cls(us, vs, ts)

    def copy(self) -> "TEL":
        """An independent TEL over the currently-alive edges.

        Equal field by field to ``TEL(edge_u, edge_v, edge_t,
        eids=self.alive)`` but copies the containers (C-level set and
        dict copies, a re-heapified ``H_v``) instead of re-inserting
        every edge. Used by (O)TCD to start each anchor row from
        ``T^k_[ts, Te]`` without disturbing the row-start chain instance
        (paper §5.2 keeps exactly these two instances in memory).
        """
        cp = TEL.__new__(TEL)
        cp.edge_u, cp.edge_v, cp.edge_t = self.edge_u, self.edge_v, self.edge_t
        # Both TELs now share the arrays, so either copies before appending.
        self.owns_arrays = cp.owns_arrays = False
        cp.alive = self.alive.copy()
        cp.tl = {t: b.copy() for t, b in self.tl.items()}
        cp.next_t = self.next_t.copy()
        cp.prev_t = self.prev_t.copy()
        cp.head_t, cp.tail_t = self.head_t, self.tail_t
        cp.sl = {v: s.copy() for v, s in self.sl.items()}
        cp.dl = {v: s.copy() for v, s in self.dl.items()}
        cp.nbr = {v: c.copy() for v, c in self.nbr.items()}
        cp.deg = self.deg.copy()
        cp.heap = DegreeHeap(cp.deg)
        cp.n_edges = self.n_edges
        return cp

    # -- O(1) manipulations (paper Table 1) --------------------------------

    def get_tti(self) -> tuple[int, int] | None:
        """Timestamps of the timeline's head and tail (``None`` if empty)."""
        if self.head_t is None:
            return None
        return (self.head_t, self.tail_t)

    def _del_tl_node(self, t: int) -> None:
        """Unlink timestamp ``t`` from the timeline (its TL must be empty)."""
        nxt = self.next_t.pop(t, None)
        prv = self.prev_t.pop(t, None)
        if prv is not None:
            if nxt is not None:
                self.next_t[prv] = nxt
            else:
                self.next_t.pop(prv, None)
        if nxt is not None:
            if prv is not None:
                self.prev_t[nxt] = prv
            else:
                self.prev_t.pop(nxt, None)
        if self.head_t == t:
            self.head_t = nxt
        if self.tail_t == t:
            self.tail_t = prv
        del self.tl[t]

    def del_edge(self, e: int, *, from_tl: bool = True) -> None:
        """Delete edge ``e``; update TL/SL/DL, degrees and the heap.

        ``from_tl=False`` skips the TL removal when the caller is
        consuming an entire TL bucket itself (truncation fast path).
        Empty TLs are unlinked immediately so the TTI invariant holds.
        """
        u, v, t = self.edge_u[e], self.edge_v[e], self.edge_t[e]
        self.alive.discard(e)
        self.n_edges -= 1
        if from_tl:
            bucket = self.tl[t]
            bucket.discard(e)
            if not bucket:
                self._del_tl_node(t)
        s = self.sl.get(u)
        if s is not None:
            s.discard(e)
            if not s:
                del self.sl[u]
        d = self.dl.get(v)
        if d is not None:
            d.discard(e)
            if not d:
                del self.dl[v]
        for a, b in ((u, v), (v, u)):
            c = self.nbr[a]
            m = c[b] - 1
            if m:
                c[b] = m
            else:
                del c[b]
                if c:
                    self.deg[a] = len(c)
                    self.heap.push(a)
                else:
                    del self.nbr[a]
                    del self.deg[a]

    def add_edge(self, u: int, v: int, t: int) -> int:
        """Dynamic-graph append (paper §6.1): ``t`` must be >= every
        existing timestamp (new events arrive in time order). Returns
        the new edge's id, the next position of the edge arrays. O(1),
        except that the first append to shared arrays copies them into
        lists this TEL owns. A self-loop takes an id but is not indexed.
        """
        if self.tail_t is not None and t < self.tail_t:
            raise ValueError(
                f"add_edge requires non-decreasing timestamps "
                f"(got {t} < tail {self.tail_t})"
            )
        if not self.owns_arrays:
            self.edge_u = list(self.edge_u)
            self.edge_v = list(self.edge_v)
            self.edge_t = list(self.edge_t)
            self.owns_arrays = True
        e = len(self.edge_u)
        self.edge_u.append(u)
        self.edge_v.append(v)
        self.edge_t.append(t)
        if u == v:
            return e
        self.alive.add(e)
        self.n_edges += 1
        if t in self.tl:
            self.tl[t].add(e)
        else:
            self.tl[t] = {e}
            if self.tail_t is None:
                self.head_t = self.tail_t = t
            else:
                self.next_t[self.tail_t] = t
                self.prev_t[t] = self.tail_t
                self.tail_t = t
        self.sl.setdefault(u, set()).add(e)
        self.dl.setdefault(v, set()).add(e)
        for a, b in ((u, v), (v, u)):
            c = self.nbr.setdefault(a, {})
            had = b in c
            c[b] = c.get(b, 0) + 1
            if not had:
                self.deg[a] = len(c)
                self.heap.push(a)
        return e

    # -- derived views -----------------------------------------------------

    def is_empty(self) -> bool:
        return self.n_edges == 0

    def vertices(self) -> set[int]:
        """Vertices with at least one incident alive edge."""
        return set(self.deg)

    def n_vertices(self) -> int:
        return len(self.deg)

    def edges(self) -> list[tuple[int, int, int]]:
        """Alive edges as sorted ``(u, v, t)`` triples (for materialising
        query results; not used on algorithm hot paths)."""
        eu, ev, et = self.edge_u, self.edge_v, self.edge_t
        return sorted((eu[e], ev[e], et[e]) for e in self.alive)

    def signature(self) -> frozenset[int]:
        """Edge-set identity of the represented subgraph."""
        return frozenset(self.alive)

    def incident_edges(self, v: int) -> Iterator[int]:
        """All alive edges touching ``v`` (its SL then DL)."""
        yield from list(self.sl.get(v, ()))
        yield from list(self.dl.get(v, ()))

    def timestamps(self) -> list[int]:
        """Timeline timestamps in ascending order (walks the links)."""
        out = []
        t = self.head_t
        while t is not None:
            out.append(t)
            t = self.next_t.get(t)
        return out
