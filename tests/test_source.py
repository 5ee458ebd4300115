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


def test_no_module_names_the_traversal_cache_key():
    # The cached_property SigmaTree._traversal is the walk cache's one
    # owner; every module reads the walk through that attribute, never the
    # instance dict.
    named = {
        path.name
        for path in SOURCE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Constant) and node.value == "_traversal"
    }
    assert named == set()


def test_only_the_parser_raises_the_mode_errors():
    # The mode rules have one owner: formula.py.  The solver checks a
    # formula against a mode by calling parse, never by raising these.
    raised = {
        f"{path.name}:{node.lineno}"
        for path in SOURCE.glob("*.py")
        if path.name != "formula.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Raise)
        and _raised_name(node.exc) in ("OpNotInSignature", "EmptyNotAllowed")
    }
    assert raised == set()


def _raised_name(exc: ast.expr | None) -> str | None:
    # The class name in ``raise Name``, ``raise Name(...)`` or ``raise mod.Name(...)``.
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return exc.id if isinstance(exc, ast.Name) else None
