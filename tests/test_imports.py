"""What ``import adequate`` loads, and where the names it defers come from."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import pytest

import adequate
from adequate import formula, generate, oracles, solver, tree

# Modules that no decision path needs: the generators, the oracles,
# bench/selftest, the standard modules only they or the CLI's option
# parsing and JSON input use, and ``dataclasses`` (with the ``inspect`` it
# loads), which loads only to raise ``FrozenInstanceError``.
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


def test_formula_pipeline_from_a_cold_start_loads_no_dataclasses():
    # In this process pytest has imported ``dataclasses`` already.  No value
    # class is a dataclass, so no stage of the pipeline loads it.
    script = (
        "import sys\n"
        "from adequate import Alphabet, equal, evaluate, normal_form, parse, prune\n"
        "f = parse('(a)+b', Alphabet.from_string('ab'))\n"
        "assert equal(f, normal_form(f)) and f.factors\n"
        "prune(evaluate(f))\n"
        "assert 'dataclasses' not in sys.modules\n"
        "from dataclasses import is_dataclass\n"
        "assert not is_dataclass(f) and not is_dataclass(type(f))\n"
        "print(repr(f))\n"
    )
    assert _fresh(script).strip() == repr(adequate.parse("(a)+b", adequate.Alphabet.from_string("ab")))


def test_deferred_names_resolve_to_their_modules():
    for name in ("enumerate_trees", "random_formula", "random_relabelling", "random_tree"):
        assert getattr(adequate, name) is getattr(generate, name)
        assert name in adequate.__all__
    # The test oracles are not exported, apart from the one that
    # ``benchmark/test_inputs.py`` imports from ``adequate``.  The round-trip
    # check lives with the tests.
    assert callable(oracles.minimal_retract_bruteforce)
    for name in ("evaluate_roundtrip_check", "minimal_retract_bruteforce"):
        with pytest.raises(AttributeError):
            getattr(adequate, name)
    assert not hasattr(oracles, "evaluate_roundtrip_check")
    for name in ("evaluate_roundtrip_check", "exists_morphism_bruteforce", "minimal_retract_bruteforce"):
        assert name not in adequate.__all__
    from adequate import exists_morphism_bruteforce, random_tree

    assert exists_morphism_bruteforce is oracles.exists_morphism_bruteforce
    assert random_tree is generate.random_tree
    assert not hasattr(adequate, "no_such_name")


def test_a_letter_is_its_string_and_an_edge_its_tuple():
    # Neither has a class of its own: a letter factor is a one-character
    # str (test_formula.py), and a tree stores each edge as a
    # (label, source, target) tuple (test_tree.py).
    for module, name in ((adequate, "Letter"), (adequate, "Edge"), (formula, "Letter"), (tree, "Edge")):
        with pytest.raises(AttributeError):
            getattr(module, name)
        assert name not in adequate.__all__


def test_the_mode_names_are_the_parsers_and_resolve_everywhere():
    for name in ("DEFAULT_MODE", "Mode", "Sidedness", "ensure_admissible"):
        assert getattr(adequate, name) is getattr(solver, name) is getattr(formula, name)
        assert name in adequate.__all__
    mode = formula.Mode(formula.Sidedness.LEFT, semigroup=True)
    assert repr(mode) == "Mode(sidedness=<Sidedness.LEFT: 'left'>, semigroup=True, swap_sided_ops=False)"
    assert repr(formula.Sidedness.RIGHT) == "<Sidedness.RIGHT: 'right'>"


# ``pickle.dumps(..., protocol=4)`` of ``Mode(Sidedness.LEFT, semigroup=True)``
# and of ``Sidedness.RIGHT`` when both were defined in ``adequate.solver``.
_SOLVER_MODE_PICKLE = (
    b"\x80\x04\x95j\x00\x00\x00\x00\x00\x00\x00\x8c\x0fadequate.solver\x94\x8c\x04Mode\x94\x93\x94)"
    b"\x81\x94}\x94(\x8c\tsidedness\x94h\x00\x8c\tSidedness\x94\x93\x94\x8c\x04left\x94\x85\x94R"
    b"\x94\x8c\tsemigroup\x94\x88\x8c\x0eswap_sided_ops\x94\x89ub."
)
_SOLVER_SIDEDNESS_PICKLE = (
    b"\x80\x04\x95-\x00\x00\x00\x00\x00\x00\x00\x8c\x0fadequate.solver\x94\x8c\tSidedness\x94\x93"
    b"\x94\x8c\x05right\x94\x85\x94R\x94."
)


def test_pickles_that_name_the_solver_still_load():
    mode = pickle.loads(_SOLVER_MODE_PICKLE)
    assert type(mode) is formula.Mode
    assert mode == formula.Mode(formula.Sidedness.LEFT, semigroup=True)
    assert hash(mode) == hash(formula.Mode(formula.Sidedness.LEFT, semigroup=True))
    assert pickle.loads(_SOLVER_SIDEDNESS_PICKLE) is formula.Sidedness.RIGHT
    # The loaded mode holds no derived state, and derives it on first use.
    ab = formula.Alphabet.from_string("ab")
    assert formula.parse("(a)*", ab, mode) == formula.parse("(a)*", ab)
    with pytest.raises(adequate.OpNotInSignature):
        formula.ensure_admissible(formula.parse("(a)+", ab), mode)
    with pytest.raises(adequate.EmptyNotAllowed):
        formula.parse("", ab, mode)
