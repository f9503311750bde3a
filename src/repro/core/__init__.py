"""The paper's primary contribution: TEL, TCD, OTCD and TTI pruning."""
from .otcd import otcd_query, tcd_query
from .tcd import tcd_operation, window_tel

__all__ = ["tcd_operation", "tcd_query", "otcd_query", "window_tel"]
