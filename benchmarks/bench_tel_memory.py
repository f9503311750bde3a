"""Table 5 benchmark: TEL(G) construction per dataset at SF=0.1 —
build time measured by pytest-benchmark, allocation peak recorded in
extra_info in MB (the quantity paper Table 5 reports) and in bytes per
edge (the unit of the repo benchmark's ``tel_bytes_per_edge``)."""
import tracemalloc

import pytest

from repro.core.tel import TEL
from repro.datasets.temporal import edge_arrays
from repro.experiments.tables import DATASET_ORDER

SF = 0.1


@pytest.mark.parametrize("name", DATASET_ORDER)
def test_tel_build(benchmark, name):
    us, vs, ts = edge_arrays(name, SF)
    tracemalloc.start()
    tel = TEL(us, vs, ts)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    benchmark.extra_info["peak_mb"] = round(peak / 2**20, 3)
    benchmark.extra_info["bytes_per_edge"] = round(peak / max(1, tel.n_edges), 1)
    benchmark.extra_info["n_edges"] = tel.n_edges
    del tel
    benchmark.pedantic(TEL, args=(us, vs, ts), rounds=2, iterations=1)
