"""Checks on the library's source text."""

from __future__ import annotations

import ast
from pathlib import Path

import adequate

SOURCE = Path(adequate.__file__).parent


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so no invariant may rest on one.
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
