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


def test_every_module_level_definition_is_used_or_exported():
    # src/ keeps only what a command or the documented API needs: every
    # module-level function or class is referenced by other code in src/
    # (not only by its own body), or listed in ``__all__`` or ``_LAZY``.
    # Module hooks such as ``__getattr__`` are called by name by Python.
    definitions = []
    users: dict[str, set] = {}
    listed: set[str] = set()
    for path in sorted(SOURCE.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for i, stmt in enumerate(module.body):
            where = (path.name, i)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((where, stmt.name))
            if isinstance(stmt, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id in ("__all__", "_LAZY") for target in stmt.targets
            ):
                listed |= set(ast.literal_eval(stmt.value))  # the list's items, the dict's keys
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    users.setdefault(node.id, set()).add(where)
                elif isinstance(node, ast.Attribute):
                    users.setdefault(node.attr, set()).add(where)
    unused = [
        f"{where[0]}:{name}"
        for where, name in definitions
        if not (name.startswith("__") and name.endswith("__"))
        and name not in listed
        and not users.get(name, set()) - {where}
    ]
    assert unused == []


# Private names that one module of src/ imports from another, as
# (importing module, defining module, name).  A new entry is a new coupling
# between modules, so it is added here on purpose or not at all.
ALLOWED_PRIVATE_IMPORTS = {
    ("bench", "solver", "_identity_alphabet"),
    ("canonical", "formula", "_from_text"),
    ("cli", "solver", "_identity_alphabet"),
    ("oracles", "homomorphism", "_check_alphabets"),
    ("oracles", "pruning", "_induced_subtree"),
    ("pruning", "homomorphism", "_propagate"),
    ("solver", "formula", "_first_occurrences"),
}


def test_private_imports_between_modules_are_the_listed_ones():
    found = set()
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found |= {(path.stem, node.module, a.name) for a in node.names if a.name.startswith("_")}
    assert found == ALLOWED_PRIVATE_IMPORTS


def test_no_module_imports_for_type_checking_only():
    # An import under ``if TYPE_CHECKING:`` hides an import cycle; the
    # names a module annotates with are defined in it or below it.
    named = {
        f"{path.name}:{node.lineno}"
        for path in SOURCE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if (isinstance(node, ast.Name) and node.id == "TYPE_CHECKING")
        or (isinstance(node, ast.Attribute) and node.attr == "TYPE_CHECKING")
        or (isinstance(node, ast.alias) and node.name == "TYPE_CHECKING")
    }
    assert named == set()


def _raised_name(exc: ast.expr | None) -> str | None:
    # The class name in ``raise Name``, ``raise Name(...)`` or ``raise mod.Name(...)``.
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return exc.id if isinstance(exc, ast.Name) else None
