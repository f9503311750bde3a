"""The paper's primary contribution: TEL, TCD, OTCD and TTI pruning."""
from .otcd import IntervalSet, otcd_query, tcd_query
from .records import CoreRecord, QueryResult, QueryStats
from .tcd import tcd_operation, window_tel
from .tel import TEL

__all__ = [
    "TEL",
    "CoreRecord",
    "QueryResult",
    "QueryStats",
    "IntervalSet",
    "tcd_operation",
    "tcd_query",
    "otcd_query",
    "window_tel",
]
