"""Result records shared by every TCQ algorithm in this reproduction.

A temporal k-core result is reported as the subinterval that induced it
(first induction wins), its Tightest Time Interval, its vertex/edge
counts, and an edge-set ``signature`` that is the ground-truth identity
used to cross-check algorithms.

A signature is one hashable pair ``(first, bits)``: the smallest edge id
of the set and ``bits``, the little-endian ``np.packbits`` of the
membership of the ids ``first .. last`` (bit ``j`` of byte ``j // 8``
says whether ``first + j`` is in the set). The first and last bits are
set, so equal edge sets, and only they, give equal signatures; the empty
set is ``(0, b"")``. It costs one bit per id of the span instead of a
Python int per edge, and a TEL reads it straight off its ``alive`` bytes
(:meth:`repro.core.tel.TEL.signature`); :func:`edge_signature` encodes
any other edge set, such as iPHC's.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

Signature = tuple[int, bytes]


def edge_signature(ids: Iterable[int]) -> Signature:
    """The signature of the edge-id set ``ids`` (see the module docstring)."""
    a = np.fromiter(ids, np.int64)
    if not a.size:
        return 0, b""
    first = int(a.min())
    bits = np.zeros(int(a.max()) - first + 1, np.uint8)
    bits[a - first] = 1
    return first, np.packbits(bits, bitorder="little").tobytes()


@dataclass(frozen=True)
class CoreRecord:
    """One distinct temporal k-core returned by a TCQ algorithm."""

    ts: int
    te: int
    tti: tuple[int, int]
    n_vertices: int
    n_edges: int
    signature: Signature

    def key(self) -> tuple:
        """Canonical identity for cross-algorithm comparison."""
        return (self.tti, self.n_vertices, self.n_edges, self.signature)


@dataclass
class QueryStats:
    """Work counters for one TCQ run (feeds Table 4 and Figure 7)."""

    cells_total: int = 0          # |{[ts,te] ⊆ [Ts,Te]}|
    cells_evaluated: int = 0      # TCD operations actually executed
    cores_collected: int = 0      # distinct cores returned
    rows_started: int = 0         # anchor rows that ran a sweep
    # OTCD pruning-rule counters (paper Table 4):
    por_triggers: int = 0
    pou_triggers: int = 0
    pol_triggers: int = 0
    por_pruned: int = 0
    pou_pruned: int = 0
    pol_pruned: int = 0

    def pruned_total(self) -> int:
        return self.por_pruned + self.pou_pruned + self.pol_pruned

    def pruned_pct(self) -> dict[str, float]:
        """Per-rule pruned-cell percentages of the full schedule."""
        tot = self.cells_total or 1
        return {
            "PoR": 100.0 * self.por_pruned / tot,
            "PoU": 100.0 * self.pou_pruned / tot,
            "PoL": 100.0 * self.pol_pruned / tot,
            "Total": 100.0 * self.pruned_total() / tot,
        }


@dataclass
class QueryResult:
    """Distinct cores + work stats for one TCQ run."""

    cores: list[CoreRecord] = field(default_factory=list)
    stats: QueryStats = field(default_factory=QueryStats)

    def keys(self) -> set[tuple]:
        return {c.key() for c in self.cores}

    def ttis(self) -> set[tuple[int, int]]:
        return {c.tti for c in self.cores}
