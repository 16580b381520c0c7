"""The benchmark's tracer (perfbench/tracing.py) replaces named functions in
rectaspec's modules; a refactor that drops one of those names must fail here
rather than break a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _tracing_module()
    hooks = [(module, attr) for module, attr, _ in tracing.SPANS + tracing.COUNTED]
    assert hooks
    missing = [(module, attr) for module, attr in hooks
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
