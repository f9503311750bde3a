"""Synthetic temporal-graph datasets (stand-ins for KONECT/SNAP)."""
