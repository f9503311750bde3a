"""The ``repro`` package imports cleanly and needs nothing test-only.

Every submodule is imported in a fresh interpreter, so a stale import of
a deleted module fails here, and the test oracles' dependencies (DuckDB,
Hypothesis) and the ``tests`` package must stay out of ``sys.modules``.
The driver path (TEL, OTCD, the baseline, the datasets and the paper's
tables) must also load without PySpark, which only ``repro.sparkdist``
and the two Spark jobs need, and the algorithms (``repro.core``,
``repro.phc``) without pandas: they need only NumPy.
"""
import os
import subprocess
import sys
from pathlib import Path

import repro

SCRIPT = """
import importlib, pkgutil, sys
import repro

def fail(name):
    raise ImportError(f"cannot import {name}")

for mod in pkgutil.walk_packages(repro.__path__, "repro.", onerror=fail):
    importlib.import_module(mod.name)
leaked = sorted({"duckdb", "hypothesis", "tests"} & set(sys.modules))
assert not leaked, f"repro imports test-only modules: {leaked}"
"""


DRIVER_SCRIPT = """
import sys
import repro.core, repro.phc, repro.datasets.temporal, repro.experiments.tables
assert "pyspark" not in sys.modules, "the driver path imports pyspark"
"""


NUMPY_ONLY_SCRIPT = """
import sys
import repro.core, repro.phc
assert "pandas" not in sys.modules, "repro.core or repro.phc imports pandas"
"""


def run_fresh(script, cwd):
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    # Run outside the repository so ``tests`` is not importable by accident.
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_package_imports_no_test_only_modules(tmp_path):
    run_fresh(SCRIPT, tmp_path)


def test_driver_path_imports_no_pyspark(tmp_path):
    run_fresh(DRIVER_SCRIPT, tmp_path)


def test_algorithms_import_no_pandas(tmp_path):
    run_fresh(NUMPY_ONLY_SCRIPT, tmp_path)
