"""Evaluation-section harnesses (paper Tables 3-6 + Figure 7)."""
from .queries import PAPER_RESULT_COUNTS, QuerySpec, selected_queries
from .tables import (
    fig7,
    print_table,
    query_tel,
    table3,
    table4,
    table5,
    table6,
)

__all__ = [
    "QuerySpec",
    "selected_queries",
    "PAPER_RESULT_COUNTS",
    "query_tel",
    "table3",
    "table4",
    "table5",
    "table6",
    "fig7",
    "print_table",
]
