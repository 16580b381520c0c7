"""The benchmark (perfbench/) imports names from rectaspec and its tracer
(perfbench/tracing.py) replaces named functions in rectaspec's modules; a
refactor that drops one of those names must fail here rather than break a
benchmark run."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def test_weighing_kernel_span_is_live():
    """The tracer's ``kernel.wm`` span wraps the support search that
    ``search_weighing`` runs, and its node count is the outcome's."""
    from rectaspec.search import search_weighing

    tracing = _tracing_module()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outcome = search_weighing(13, 4)
    finally:
        tracer.uninstall()
    assert [span[0] for span in tracer.spans].count("kernel.wm") == 1
    assert outcome.nodes > 0
    assert tracer.counts["kernel.wm_nodes"] == outcome.nodes


def _rectaspec_imports():
    """(file, module, name) for every ``from rectaspec... import name`` in
    perfbench/*.py, at module level or inside a function, and (file,
    module, None) for every ``import rectaspec...``; read with ast, not run."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "rectaspec":
                for alias in node.names:
                    yield path.name, node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "rectaspec":
                        yield path.name, alias.name, None


def _resolves(module: str, name: str | None) -> bool:
    """``from module import name`` (or ``import module``) would succeed."""
    try:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")  # a submodule
    except ImportError:
        return False
    return True


def test_benchmark_imports_resolve():
    imports = list(_rectaspec_imports())
    names = {name for _, _, name in imports}
    # the worker, the self-test (some inside functions) and the inputs
    assert {"active_backend", "run_search", "kernel_arguments",
            "build_signature_problem", "search_weighing"} <= names
    missing = [entry for entry in imports if not _resolves(*entry[1:])]
    assert missing == []
