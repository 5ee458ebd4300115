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


def test_only_tree_names_the_traversal_cache_key():
    # tree._compute_traversal owns the walk cache; other modules read the
    # walk through it or the _traversal attribute, never the instance dict.
    named = {
        path.name
        for path in SOURCE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Constant) and node.value == "_traversal"
    }
    assert named == {"tree.py"}
