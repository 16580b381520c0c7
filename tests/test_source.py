"""Checks on the package source itself."""

import ast
import io
import re
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rectaspec"
TRACING = PACKAGE.parents[1] / "perfbench" / "tracing.py"


def test_no_assert_statements():
    """``python -O`` strips assert statements, so no gate may be one."""
    paths = sorted(PACKAGE.rglob("*.py"))
    assert paths
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _traced_hooks() -> set[tuple[str, str]]:
    """(module, attribute) of every ``SPANS`` and ``COUNTED`` entry of the
    benchmark's tracer, read with ast, not run."""
    hooks = set()
    for node in ast.parse(TRACING.read_text(), str(TRACING)).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets in (["SPANS"], ["COUNTED"]):
            hooks |= {(module, attr) for module, attr, _ in ast.literal_eval(node.value)}
    return hooks


def _silenced_imports():
    """(place, module, name) for every name imported on a statement that
    carries ``# noqa: F401``, module being the importing module's dotted name."""
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text()
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        noqa = {tok.start[0] for tok in tokens
                if tok.type == tokenize.COMMENT and re.search(r"noqa:\s*F401", tok.string)}
        parts = ("rectaspec", *path.relative_to(PACKAGE).with_suffix("").parts)
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for node in ast.walk(ast.parse(text, str(path))):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and noqa & set(range(node.lineno, node.end_lineno + 1))):
                for alias in node.names:
                    yield (f"{path.relative_to(PACKAGE)}:{node.lineno}", module,
                           alias.asname or alias.name)


def test_silenced_imports_are_tracer_hooks():
    """An import kept unused only for the benchmark's tracer must name a
    function the tracer wraps in that module; any other is dead."""
    hooks = _traced_hooks()
    assert hooks
    silenced = list(_silenced_imports())
    assert silenced
    stale = [f"{place} {name}" for place, module, name in silenced
             if (module, name) not in hooks]
    assert stale == []


def test_float_types_named_only_in_exactlinalg():
    """``exactlinalg.exact_matmul`` alone chooses the arithmetic of an
    integer product, so no other module names a float type."""
    found = [f"{path.relative_to(PACKAGE)}:{i}"
             for path in sorted(PACKAGE.rglob("*.py")) if path.name != "exactlinalg.py"
             for i, line in enumerate(path.read_text().splitlines(), start=1)
             if re.search(r"float(32|64)", line)]
    assert found == []


def test_products_taken_only_in_exactlinalg():
    """Every matrix product outside ``exactlinalg`` goes through
    ``exact_matmul``: no other module writes ``@`` or calls a NumPy
    product function."""
    products = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum"}
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in sorted(PACKAGE.rglob("*.py")) if path.name != "exactlinalg.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(getattr(node, "op", None), ast.MatMult)
             or isinstance(node, ast.Attribute) and node.attr in products]
    assert found == []


def _package_nodes():
    """(place, node) for every ast node of every module of the package."""
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield f"{path.relative_to(PACKAGE)}:{getattr(node, 'lineno', 0)}", node


def _outside_core():
    """(place, node) for every ast node of every module but ``core``."""
    return ((place, node) for place, node in _package_nodes()
            if not place.startswith("core.py:"))


def _little_endian_call(node, name: str) -> bool:
    """Whether ``node`` calls ``name`` with ``bitorder="little"``."""
    return (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == name
            and any(kw.arg == "bitorder" and getattr(kw.value, "value", None) == "little"
                    for kw in node.keywords))


def test_row_masks_built_only_in_core():
    """``core._row_masks`` alone turns matrix rows into Python-int bitmasks:
    no other module calls ``int.from_bytes`` or a little-endian ``packbits``
    (graph6 packs its six-bit groups big-endian)."""
    found = [place for place, node in _outside_core()
             if isinstance(node, ast.Attribute) and node.attr == "from_bytes"
             or _little_endian_call(node, "packbits")]
    assert found == []


def test_masks_read_back_only_in_core():
    """``core._mask_bits`` alone turns a Python-int bitmask back into an
    array: no other module calls ``int.to_bytes`` or a little-endian
    ``unpackbits`` (graph6 unpacks big-endian)."""
    found = [place for place, node in _outside_core()
             if isinstance(node, ast.Attribute) and node.attr == "to_bytes"
             or _little_endian_call(node, "unpackbits")]
    assert found == []


def test_signed_relabellings_scattered_only_in_core():
    """``core._signed_permute`` alone writes a matrix through ``np.ix_``;
    other modules may read through it, not assign to it."""
    found = [place for place, node in _outside_core()
             if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
             for target in getattr(node, "targets", [getattr(node, "target", None)])
             if isinstance(target, ast.Subscript)
             and any(getattr(sub, "attr", getattr(sub, "id", None)) == "ix_"
                     for sub in ast.walk(target.slice))]
    assert found == []


def test_integers_read_only_in_core():
    """``core._check_counts`` alone reads a count, order, degree, dimension,
    lambda^2, vertex index or edge sign as an int: no other module calls
    ``operator.index``."""
    found = [place for place, node in _outside_core()
             if isinstance(node, ast.Attribute) and node.attr == "index"
             and getattr(node.value, "id", None) == "operator"
             or isinstance(node, ast.ImportFrom) and node.module == "operator"]
    assert found == []


def _shape_index(node):
    """i for an ast node ``<expr>.shape[i]`` with a constant i, else None."""
    if (isinstance(node, ast.Subscript) and getattr(node.value, "attr", None) == "shape"
            and isinstance(node.slice, ast.Constant)):
        return node.slice.value
    return None


def test_squareness_checked_only_in_core():
    """``core._exact_copy`` alone refuses a matrix that is not square: no
    other module compares a ``shape[0]`` with a ``shape[1]``."""
    found = [place for place, node in _outside_core()
             if isinstance(node, ast.Compare)
             and {0, 1} <= {_shape_index(side) for side in (node.left, *node.comparators)}]
    assert found == []


def _input_reads(root) -> list[int]:
    """Lines under ``root`` that read an input: a use of ``stdin``, or an
    ``open`` call whose mode is not a constant that writes."""
    lines = []
    for node in ast.walk(root):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), None)
            if not (isinstance(mode, ast.Constant) and set(mode.value) & set("wax")):
                lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "stdin":
            lines.append(node.lineno)
    return sorted(lines)


def test_cli_reads_input_only_in_its_reader():
    """``cli._read`` alone opens a file to read it or reads stdin; ``--log``
    and ``convert --out`` open theirs to write."""
    path = PACKAGE / "cli.py"
    tree = ast.parse(path.read_text(), str(path))
    [reader] = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_read"]
    assert _input_reads(reader)
    assert _input_reads(tree) == _input_reads(reader)


def test_dfs_kernel_stays_a_reference():
    """The paper's DFS (``_kernel``) is the tests' reference, not a search:
    only ``search``'s tracer-hook line imports it, and no package code calls
    ``run_search`` or ``kernel_arguments``."""
    imports = [place for place, node in _package_nodes()
               if isinstance(node, ast.ImportFrom) and node.module
               and node.module.split(".")[-1] == "_kernel"
               or isinstance(node, ast.Import)
               and any(a.name.split(".")[-1] == "_kernel" for a in node.names)]
    hook = [place for place, _, name in _silenced_imports()
            if place.startswith("search.py:") and name == "run_search"]
    assert len(hook) == 1 and imports == hook
    calls = [place for place, node in _package_nodes()
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None))
             in ("run_search", "kernel_arguments")]
    assert calls == []
