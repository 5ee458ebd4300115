"""What ``import adequate`` loads, and where the names it defers come from."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import adequate
from adequate import generate, oracles

# Modules that no decision path needs: the generators, the oracles,
# bench/selftest, the standard modules only they or the CLI's option
# parsing and JSON input use, and ``dataclasses`` with the ``inspect`` it
# loads, which only ``Formula``'s dataclass metadata needs, on first read.
DEFERRED = {
    "argparse",
    "dataclasses",
    "heapq",
    "inspect",
    "json",
    "adequate.bench",
    "adequate.generate",
    "adequate.oracles",
}


def _fresh(script: str) -> str:
    # Runs the script in a fresh interpreter that imports this adequate.
    src = os.path.dirname(os.path.dirname(adequate.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_only_the_decision_pipeline():
    # What ``import adequate, adequate.cli`` adds to the modules a bare
    # ``python -c`` start has already loaded.
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import adequate, adequate.cli\n"
        "print(adequate.__file__)\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    where, added = _fresh(script).splitlines()
    assert os.path.samefile(where, adequate.__file__)
    assert sorted(DEFERRED & set(added.split())) == []


def test_formula_dataclass_api_from_a_cold_start():
    # In this process pytest has imported ``dataclasses`` already; here
    # ``Formula`` builds its dataclass metadata after ``adequate`` loaded.
    script = (
        "import sys\n"
        "assert 'dataclasses' not in sys.modules\n"
        "from adequate import Alphabet, parse\n"
        "f = parse('(a)+b', Alphabet.from_string('ab'))\n"
        "assert 'dataclasses' not in sys.modules\n"
        "from dataclasses import fields, is_dataclass, replace\n"
        "assert is_dataclass(f) and is_dataclass(type(f))\n"
        "assert [field.name for field in fields(f)] == ['factors', 'alphabet']\n"
        "assert replace(f) == f and replace(f, factors=f.factors[1:]) == parse('b', f.alphabet)\n"
        "assert not is_dataclass(f.alphabet)\n"
        "print(repr(replace(f)))\n"
    )
    assert _fresh(script).strip() == repr(adequate.parse("(a)+b", adequate.Alphabet.from_string("ab")))


def test_deferred_names_resolve_to_their_modules():
    for name in ("enumerate_trees", "random_formula", "random_relabelling", "random_tree"):
        assert getattr(adequate, name) is getattr(generate, name)
        assert name in adequate.__all__
    # The test oracles are not exported, apart from the one that
    # ``benchmark/test_inputs.py`` imports from ``adequate``.
    for name in ("evaluate_roundtrip_check", "minimal_retract_bruteforce"):
        assert callable(getattr(oracles, name))
        with pytest.raises(AttributeError):
            getattr(adequate, name)
    for name in ("evaluate_roundtrip_check", "exists_morphism_bruteforce", "minimal_retract_bruteforce"):
        assert name not in adequate.__all__
    from adequate import exists_morphism_bruteforce, random_tree

    assert exists_morphism_bruteforce is oracles.exists_morphism_bruteforce
    assert random_tree is generate.random_tree
    assert not hasattr(adequate, "no_such_name")
