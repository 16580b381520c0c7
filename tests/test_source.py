"""Checks on the package source itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rectaspec"


def test_no_assert_statements():
    """``python -O`` strips assert statements, so no gate may be one."""
    paths = sorted(PACKAGE.rglob("*.py"))
    assert paths
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
