"""Synthetic temporal-graph datasets (stand-ins for KONECT/SNAP)."""
from .temporal import (
    DATASETS,
    DatasetSpec,
    burst_schedule,
    generate,
    generate_spark,
    tick_to_date,
)

__all__ = [
    "DATASETS",
    "DatasetSpec",
    "burst_schedule",
    "generate",
    "generate_spark",
    "tick_to_date",
]
