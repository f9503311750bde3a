"""Distributed (Catalyst / mapInPandas) implementations."""
from .tcq import distributed_tcq_pdf

__all__ = ["distributed_tcq_pdf"]
