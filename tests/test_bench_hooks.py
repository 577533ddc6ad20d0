"""The benchmark harness in perfbench/ wraps agecourier functions by name, so
every function it times must stay a callable attribute of its module."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_timed_function_is_a_callable_of_its_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    for mod, fns in tracer.TIMED.items():
        module = importlib.import_module(f"agecourier.{mod}")
        for fn in fns:
            assert callable(getattr(module, fn, None)), f"agecourier.{mod}.{fn}"
