"""Every entry point the benchmark's tracer wraps still resolves, and the
tracer puts each one back.

The hooks are read from the tracer's own undo list, so the test follows
``perfbench/tracing.py`` without naming them: a renamed or deleted
``repro`` function fails ``install`` with an ``AttributeError``.
"""
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_tracer_installs_and_restores_every_hook(spark):
    tracer = load_tracer()()
    try:
        tracer.install(spark)
        hooks = list(tracer._undo)
        assert hooks
        for owner, attr, orig in hooks:
            assert getattr(owner, attr) is not orig, f"{owner}.{attr} not wrapped"
    finally:
        tracer.uninstall()
    for owner, attr, orig in hooks:
        assert getattr(owner, attr) is orig, f"{owner}.{attr} not restored"
