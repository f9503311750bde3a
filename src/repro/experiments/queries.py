"""The 20 selected temporal k-core queries (analogue of paper Table 3).

The paper hand-picked 20 valid queries with spans of 1–3 days from
random probes on the four SNAP graphs (5 per graph; k = 2/3/2/2).
Our datasets are synthetic but expose their burst schedule, so the
analogue selection is deterministic: for each dataset we centre a
window of the configured span on 5 evenly-spaced bursts — exactly the
"verified to be valid" property the paper required (a burst guarantees
at least one temporal k-core in the window).
"""
from __future__ import annotations

from dataclasses import dataclass

from ..datasets.temporal import DATASETS, burst_schedule

# (dataset, k, query span in days) — k values follow paper Table 3;
# spans of 1-3 days mirror the paper's setting (ticks = days * tpd).
_QUERY_PLAN: list[tuple[str, int, int]] = [
    ("collegemsg", 2, 3),
    ("email-eu", 3, 2),
    ("mathoverflow", 2, 1),
    ("stackoverflow", 2, 1),
]

# Paper Table 3 result counts, for side-by-side reporting (same order
# as our query ids: 5 CollegeMsg, 5 email-Eu, 5 mathoverflow, 5 stackoverflow).
PAPER_RESULT_COUNTS = [
    61, 21, 27, 26, 10,
    2, 3, 7, 25, 16,
    8, 4, 5, 2, 8,
    6, 37, 5, 5, 10,
]


@dataclass(frozen=True)
class QuerySpec:
    """One TCQ instance of the evaluation workload."""

    qid: int
    dataset: str
    Ts: int
    Te: int
    k: int


def selected_queries(*, sf: float = 1.0) -> list[QuerySpec]:
    """The 20 queries (5 per dataset), deterministic in the dataset
    seeds. At ``sf < 1`` the same burst-anchored construction is applied
    to the scaled datasets (used by tests)."""
    out: list[QuerySpec] = []
    qid = 1
    for name, k, span_days in _QUERY_PLAN:
        spec = DATASETS[name].scaled(sf)
        span = max(4, span_days * spec.ticks_per_day)
        sched = burst_schedule(spec)
        sched = sched[sched["edges"] > 0].reset_index(drop=True)
        n = len(sched)
        picks = [sched.iloc[min(i * max(1, n // 5), n - 1)] for i in range(5)]
        for row in picks:
            center = int(row["center"])
            Ts = max(1, center - span // 2)
            Te = min(spec.n_ticks, Ts + span - 1)
            Ts = max(1, Te - span + 1)
            out.append(QuerySpec(qid=qid, dataset=name, Ts=Ts, Te=Te, k=k))
            qid += 1
    return out
