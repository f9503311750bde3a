"""PHC-Index and the iPHC-Query baseline (paper §2.3)."""
from .baseline import iphc_query
from .index import build_phc_index

__all__ = ["iphc_query", "build_phc_index"]
