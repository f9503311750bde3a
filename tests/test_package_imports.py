"""The ``repro`` package imports cleanly and needs nothing test-only.

Every submodule is imported in a fresh interpreter, so a stale import of
a deleted module fails here, and the test oracles' dependencies (DuckDB,
Hypothesis) and the ``tests`` package must stay out of ``sys.modules``.
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


def test_package_imports_no_test_only_modules(tmp_path):
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    # Run outside the repository so ``tests`` is not importable by accident.
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
