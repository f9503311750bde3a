"""Synthetic temporal graphs standing in for the paper's seven datasets.

The container has no network access, so the KONECT/SNAP graphs of the
paper's Table 2 are replaced by deterministic generators that reproduce
the structural properties the (O)TCD algorithms are sensitive to
(DESIGN.md §3):

* undirected multigraph with parallel temporal edges,
* skewed community sizes (Zipf),
* *bursts*: short windows in which a small member set of one community
  interacts densely — these create temporal k-cores with tight TTIs,
* a long sparse background — this creates the empty / heavily-pruned
  regions of the subinterval schedule.

Timestamps are integer "ticks" starting at 1 (the paper itself
normalises timestamps to continuous integers); ``ticks_per_day`` maps
ticks back to the day spans reported in Table 2.

Every generator is deterministic in ``spec.seed`` and exposes its burst
schedule so query selection (Table 3 analogue) is reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


@dataclass(frozen=True)
class DatasetSpec:
    """Parameters of one synthetic temporal graph (see DESIGN.md Table A)."""

    name: str
    n_vertices: int
    n_edges: int
    span_days: int
    ticks_per_day: int
    n_communities: int
    burst_fraction: float
    n_bursts: int
    burst_members: int
    burst_width_ticks: int
    seed: int
    base_date: str              # tick 1 maps to this GMT date (Table 6)
    paper_vertices: str = ""
    paper_edges: str = ""
    paper_span_days: int = 0
    scale_note: str = ""
    # "community": burst members come from one community (small graphs;
    # background edges inside the community may join the cores, adding
    # realistic variety). "global": members are a random vertex sample
    # (large graphs; keeps background out of high-k cores so the
    # full-span scan's core count stays in the paper's regime).
    burst_scope: str = "community"

    @property
    def n_ticks(self) -> int:
        return self.span_days * self.ticks_per_day

    def scaled(self, sf: float) -> "DatasetSpec":
        """A proportionally smaller instance (for tests); keeps the tick
        span so temporal structure (bursts vs background) is preserved."""
        if sf >= 1.0:
            return self
        n_vertices = max(30, int(self.n_vertices * sf))
        return replace(
            self,
            n_vertices=n_vertices,
            n_edges=max(200, int(self.n_edges * sf)),
            n_bursts=max(2, int(self.n_bursts * sf)),
            burst_members=max(8, min(self.burst_members, n_vertices // 3)),
            n_communities=max(2, min(self.n_communities, n_vertices // 8)),
        )


DATASETS: dict[str, DatasetSpec] = {
    s.name: s
    for s in [
        DatasetSpec("youtube", 160_000, 470_000, 226, 24, 400, 0.35, 50, 48, 4,
                    11, "2006-07-01", "3.2M", "9.4M", 226, "5% of edges", "global"),
        DatasetSpec("dblp", 90_000, 300_000, 17_532, 1, 600, 0.30, 150, 24, 8,
                    12, "1970-01-01", "1.8M", "29.5M", 17_532, "1% of edges; 1 tick/day", "global"),
        DatasetSpec("flickr", 115_000, 330_000, 198, 24, 350, 0.30, 60, 40, 4,
                    13, "2006-11-01", "2.3M", "33M", 198, "1% of edges", "global"),
        DatasetSpec("collegemsg", 1_800, 20_000, 193, 96, 25, 0.35, 40, 14, 6,
                    14, "2004-04-15", "1.8K", "20K", 193, "full scale"),
        DatasetSpec("email-eu", 900, 332_000, 803, 96, 20, 0.30, 120, 18, 6,
                    15, "2003-01-01", "0.9K", "332K", 803, "full scale"),
        DatasetSpec("mathoverflow", 24_800, 506_000, 2_350, 96, 120, 0.30, 160, 16, 4,
                    16, "2009-09-28", "24.8K", "506K", 2_350, "full scale"),
        DatasetSpec("stackoverflow", 260_000, 635_000, 2_774, 96, 500, 0.30, 180, 16, 4,
                    17, "2008-08-01", "2.6M", "63.5M", 2_774, "1% of edges"),
    ]
}


def _community_layout(spec: DatasetSpec):
    """Zipf-ish community sizes summing to n_vertices; vertices are
    contiguous ids per community. Returns (starts, sizes)."""
    # Guard: at tiny scales the configured community count may exceed
    # what n_vertices can hold at the minimum size of 4 per community.
    n_comm = max(1, min(spec.n_communities, spec.n_vertices // 4))
    w = 1.0 / np.arange(1, n_comm + 1) ** 0.9
    sizes = np.maximum(4, (w / w.sum() * spec.n_vertices).astype(np.int64))
    # Trim/pad the largest community so sizes sum exactly to n_vertices.
    sizes[0] += spec.n_vertices - sizes.sum()
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    return starts, sizes


def burst_schedule(spec: DatasetSpec) -> pd.DataFrame:
    """The deterministic burst plan: one row per burst with its
    community, centre tick, width, member count and edge budget."""
    rng = np.random.default_rng(spec.seed)
    starts, sizes = _community_layout(spec)
    n_burst_edges = int(spec.n_edges * spec.burst_fraction)
    comm = rng.integers(0, len(sizes), spec.n_bursts)
    # Evenly spaced centres with deterministic jitter: real activity
    # spikes are spread over the graph's lifetime, and even spacing keeps
    # 1-3-day query windows at one burst each, matching the paper's
    # result-count regime (a few to a few dozen cores per query).
    spacing = spec.n_ticks / (spec.n_bursts + 1)
    jitter = rng.integers(
        -max(1, int(spacing // 4)), max(2, int(spacing // 4) + 1), spec.n_bursts
    )
    centers = (
        (np.arange(1, spec.n_bursts + 1) * spacing).astype(np.int64) + jitter
    )
    centers = np.clip(
        centers, spec.burst_width_ticks + 1,
        max(spec.burst_width_ticks + 2, spec.n_ticks - spec.burst_width_ticks),
    )
    # Heterogeneous bursts: member counts vary (the paper's Table 6
    # cores range from 12 to 46K vertices) and edge budgets scale with
    # the member count squared, so small bursts stay dense enough to
    # hold a k-core while large bursts dominate the edge volume.
    bm = min(spec.burst_members, spec.n_vertices)
    members = rng.integers(max(6, bm // 4), bm + 1, spec.n_bursts)
    if spec.burst_scope != "global":
        members = np.minimum(members, sizes[comm])
    w = members.astype(np.float64) ** 2
    budgets = rng.multinomial(n_burst_edges, w / w.sum())
    return pd.DataFrame(
        {
            "burst": np.arange(spec.n_bursts),
            "community": comm,
            "center": centers,
            "width": spec.burst_width_ticks,
            "members": members,
            "edges": budgets,
        }
    )


def _pairs_within(
    rng: np.random.Generator, pool: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """n random non-self vertex pairs drawn from ``pool`` (|pool| >= 2)."""
    m = len(pool)
    i = rng.integers(0, m, n)
    j = (i + 1 + rng.integers(0, m - 1, n)) % m
    return pool[i], pool[j]


@lru_cache(maxsize=16)
def _generate_cached(name: str, sf: float) -> pd.DataFrame:
    spec = DATASETS[name].scaled(sf)
    return generate_pdf(spec)


def generate_pdf(spec: DatasetSpec) -> pd.DataFrame:
    """The full edge table ``(u, v, t)`` as pandas, sorted by timestamp
    (stable), which is the arrival order a streaming ingest would see and
    the input model of :mod:`repro.core.tel` (edge id = row position)."""
    rng = np.random.default_rng(spec.seed)
    starts, sizes = _community_layout(spec)
    sched = burst_schedule(spec)

    us, vs, ts = [], [], []
    # Burst edges: dense interaction among a fixed member subset.
    for row in sched.itertuples(index=False):
        c, center, width, m, budget = (
            row.community, row.center, row.width, row.members, row.edges,
        )
        if budget == 0 or m < 2:
            continue
        if spec.burst_scope == "global":
            pool = rng.choice(spec.n_vertices, size=m, replace=False)
        else:
            pool = starts[c] + rng.choice(sizes[c], size=m, replace=False)
        u, v = _pairs_within(rng, pool, budget)
        lo = max(1, center - width // 2)
        hi = min(spec.n_ticks, center + (width + 1) // 2)
        t = rng.integers(lo, hi + 1, budget)
        us.append(u)
        vs.append(v)
        ts.append(t)
    # Background edges: mostly intra-community, uniform over the span.
    n_bg = spec.n_edges - int(sum(len(a) for a in us))
    if n_bg > 0:
        comm_w = sizes.astype(np.float64)
        comm_w /= comm_w.sum()
        c = rng.choice(len(sizes), size=n_bg, p=comm_w)
        local_u = rng.random(n_bg)
        local_v = rng.random(n_bg)
        u = starts[c] + (local_u * sizes[c]).astype(np.int64)
        v = starts[c] + (local_v * sizes[c]).astype(np.int64)
        # Re-route the ~20% inter-community share and fix self-loops.
        inter = rng.random(n_bg) < 0.2
        v = np.where(inter, rng.integers(0, spec.n_vertices, n_bg), v)
        clash = u == v
        v[clash] = (v[clash] + 1) % spec.n_vertices
        t = rng.integers(1, spec.n_ticks + 1, n_bg)
        us.append(u)
        vs.append(v)
        ts.append(t)

    pdf = pd.DataFrame(
        {
            "u": np.concatenate(us).astype(np.int64),
            "v": np.concatenate(vs).astype(np.int64),
            "t": np.concatenate(ts).astype(np.int64),
        }
    )
    return pdf.sort_values("t", kind="stable").reset_index(drop=True)


def generate(name: str, *, sf: float = 1.0) -> pd.DataFrame:
    """Deterministic edge table for a named dataset at scale ``sf``."""
    return _generate_cached(name, sf)


def generate_spark(
    spark: SparkSession, name: str, *, sf: float = 1.0
) -> DataFrame:
    """The same edge table as a Spark DataFrame (Arrow-backed)."""
    return spark.createDataFrame(generate(name, sf=sf))


@lru_cache(maxsize=16)
def edge_arrays(
    name: str, sf: float = 1.0
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Column arrays ``(u, v, t)`` for TEL construction; cached because
    every query on a dataset shares them (edge ids are positions), so
    they are tuples: a dynamic graph (§6.1) appends to its own copy."""
    pdf = generate(name, sf=sf)
    return tuple(tuple(pdf[c].tolist()) for c in "uvt")


def tick_to_date(spec: DatasetSpec, tick: int) -> str:
    """GMT date of a tick (Table 6's date column)."""
    base = pd.Timestamp(spec.base_date)
    return (base + pd.Timedelta(days=(tick - 1) / spec.ticks_per_day)).strftime(
        "%b %d %Y"
    )
