"""Distributed (Catalyst / mapInPandas) implementations."""
from .decomposition import peel, temporal_kcore_df
from .graph_io import EDGE_SCHEMA, degrees, detemporalized, graph_stats, projected
from .tcq import distributed_tcq, distributed_tcq_pdf

__all__ = [
    "EDGE_SCHEMA",
    "projected",
    "detemporalized",
    "degrees",
    "graph_stats",
    "peel",
    "temporal_kcore_df",
    "distributed_tcq",
    "distributed_tcq_pdf",
]
