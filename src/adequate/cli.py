"""Command-line front end.

Exit codes: 0 success (equal / identity holds / morphism exists), 1 negative
answer, 2 error.  Data goes to stdout, diagnostics to stderr.  Formula and
tree arguments may be given inline or as ``@path`` file references; an
argument starting with ``{`` is read as tree JSON, anything else as formula
text.
"""

from __future__ import annotations

import sys

from .errors import Error
from .formula import Alphabet, Mode, Sidedness, parse, render
# ``exists_morphism`` has no caller here; ``benchmark/spans.py`` traces it by
# this name, as it does the other library functions imported here.
from .homomorphism import exists_morphism, extract_morphism
from .pruning import prune
from .solver import _identity_alphabet, check_identity, equal, normal_form
from .tree import SigmaTree, evaluate, from_json, to_dot, to_json

_SIDEDNESS = {
    "adequate": Sidedness.TWO_SIDED,
    "left": Sidedness.LEFT,
    "right": Sidedness.RIGHT,
}


def _add_global_options(parser) -> None:
    parser.add_argument("--alphabet", default="ab", help="generator symbols (default: ab)")
    parser.add_argument(
        "--mode",
        choices=sorted(_SIDEDNESS),
        default="adequate",
        help="variety: two-sided (adequate), left or right (default: adequate)",
    )
    parser.add_argument(
        "--semigroup",
        action="store_true",
        help="semigroup rather than monoid: reject the empty formula",
    )
    parser.add_argument(
        "--swap-sided-ops",
        action="store_true",
        help="invert which unary operation the one-sided modes admit",
    )
    parser.add_argument("--seed", type=int, default=0, help="64-bit seed for generation")


def _add_command(subparsers, name: str) -> None:
    _, help_text, arguments = _COMMANDS[name]
    p = subparsers.add_parser(name, help=help_text)
    for name_or_flag, options in arguments:
        p.add_argument(name_or_flag, **options)


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command; ``main`` prints its help and errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="adequate",
        description="Word problem, normal forms and identity checking in free "
        "adequate semigroups and monoids, via birooted labelled trees.",
    )
    _add_global_options(parser)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        _add_command(sub, name)
    return parser


class _Fallback(Exception):
    """A lean parser would have printed or exited."""


def _fall_back(*args, **kwargs):
    raise _Fallback


def _quiet_parser(**kwargs):
    """An ``ArgumentParser`` with no help option (``-h`` is a usage error)
    that raises ``_Fallback`` wherever it would print or exit."""
    import argparse

    parser = argparse.ArgumentParser(add_help=False, **kwargs)
    parser.error = parser.exit = parser.print_help = parser.print_usage = _fall_back
    return parser


def _parse_lean(argv):
    """The full parser's ``Namespace`` for argv, from one quiet parser.

    The command is taken to be the first argument that names one.  The
    parser holds the global options and that command's subparser alone,
    with a ``prog`` so that no usage line is formatted, and reads argv once.
    A wrong guess (``--alphabet eq nf e``, where ``eq`` is the alphabet)
    leaves a command word the parser does not know, so it is a usage error.
    Raises ``_Fallback``, having printed nothing, wherever argparse would
    print: help, a missing or unknown command, or any usage error.
    """
    if argv is None:
        argv = sys.argv[1:]
    command = next((arg for arg in argv if arg in _COMMANDS), None)
    if command is None:
        raise _Fallback
    parser = _quiet_parser(prog="adequate")
    _add_global_options(parser)
    subparsers = parser.add_subparsers(
        dest="command", required=True, prog="adequate", parser_class=_quiet_parser
    )
    _add_command(subparsers, command)
    return parser.parse_args(argv)


def _mode_from_args(args) -> Mode:
    return Mode(_SIDEDNESS[args.mode], args.semigroup, args.swap_sided_ops)


def _read_source(arg: str) -> str:
    if arg.startswith("@"):
        with open(arg[1:], encoding="utf-8-sig") as fh:
            return fh.read()
    return arg


def _tree_or_formula(arg: str, alphabet: Alphabet, mode: Mode) -> SigmaTree:
    text = _read_source(arg).strip()
    if text.startswith("{"):
        return from_json(text)
    return evaluate(parse(text, alphabet, mode))


def _emit_tree(tree: SigmaTree, dot_path: str | None) -> None:
    # The DOT file first, so that a path that cannot be written prints no tree.
    if dot_path:
        with open(dot_path, "w", encoding="utf-8") as fh:
            fh.write(to_dot(tree))
    print(to_json(tree))


def _cmd_eval(args) -> int:
    alphabet = Alphabet.from_string(args.alphabet)
    tree = evaluate(parse(_read_source(args.formula), alphabet, _mode_from_args(args)))
    _emit_tree(tree, args.dot)
    return 0


def _cmd_prune(args) -> int:
    alphabet = Alphabet.from_string(args.alphabet)
    tree = _tree_or_formula(args.input, alphabet, _mode_from_args(args))
    _emit_tree(prune(tree).tree, args.dot)
    return 0


def _cmd_nf(args) -> int:
    alphabet = Alphabet.from_string(args.alphabet)
    mode = _mode_from_args(args)
    print(render(normal_form(parse(_read_source(args.formula), alphabet, mode), mode)))
    return 0


def _cmd_eq(args) -> int:
    alphabet = Alphabet.from_string(args.alphabet)
    mode = _mode_from_args(args)
    f1 = parse(_read_source(args.left), alphabet, mode)
    f2 = parse(_read_source(args.right), alphabet, mode)
    same = equal(f1, f2, mode)
    print("equal" if same else "not-equal")
    return 0 if same else 1


def _cmd_morph(args) -> int:
    import json

    alphabet = Alphabet.from_string(args.alphabet)
    mode = _mode_from_args(args)
    source = _tree_or_formula(args.source, alphabet, mode)
    target = _tree_or_formula(args.target, alphabet, mode)
    witness = extract_morphism(source, target)
    if witness is None:
        print(json.dumps({"exists": False, "map": None}, separators=(",", ":")))
        return 1
    print(json.dumps({"exists": True, "map": list(witness.mapping)}, separators=(",", ":")))
    return 0


def _cmd_check_identity(args) -> int:
    mode = _mode_from_args(args)
    lhs_text = _read_source(args.lhs)
    rhs_text = _read_source(args.rhs)
    alphabet = _identity_alphabet(lhs_text, rhs_text)
    holds = check_identity(
        parse(lhs_text, alphabet, mode), parse(rhs_text, alphabet, mode), mode
    )
    print("holds" if holds else "fails")
    return 0 if holds else 1


def _cmd_gen(args) -> int:
    from random import Random

    from .generate import random_tree

    alphabet = Alphabet.from_string(args.alphabet)
    if args.edges < 0:
        raise ValueError("--edges must be non-negative")
    tree = random_tree(Random(args.seed), args.edges, alphabet)
    _emit_tree(tree, args.dot)
    return 0


def _cmd_bench(args) -> int:
    from .bench import run_bench

    if args.reps <= 0:
        raise ValueError("--reps must be positive")
    sizes = [int(part) for part in args.sizes.split(",") if part.strip()]
    if not sizes or any(s <= 0 for s in sizes):
        raise ValueError("--sizes must be positive integers")
    alphabet = Alphabet.from_string(args.alphabet)
    rows, slope_eq, slope_prune = run_bench(sizes, args.reps, alphabet, args.seed)
    print("size,eq_mean_s,prune_mean_s")
    for size, eq_mean, prune_mean in rows:
        print(f"{size},{eq_mean:.6f},{prune_mean:.6f}")
    print(f"slope,{slope_eq:.3f},{slope_prune:.3f}")
    return 0


def _cmd_selftest(args) -> int:
    from .bench import run_selftest

    alphabet = Alphabet.from_string(args.alphabet)
    return 0 if run_selftest(alphabet, args.seed) else 1


# Each command: its handler, its help line and its arguments, as (name,
# options) for ``add_argument``; ``build_parser`` adds every command and
# ``_parse_lean`` only the one it runs.
_DOT = ("--dot", {"metavar": "PATH", "help": "also write a DOT rendering"})
_COMMANDS = {
    "eval": (
        _cmd_eval,
        "evaluate a formula to its unpruned tree (JSON)",
        (("formula", {}), _DOT),
    ),
    "prune": (
        _cmd_prune,
        "prune a tree (JSON or formula) to its minimal retract; mode flags apply to formulas only",
        (("input", {}), _DOT),
    ),
    "nf": (_cmd_nf, "print the normal form of a formula", (("formula", {}),)),
    "eq": (
        _cmd_eq,
        "decide whether two formulas are equal (exit 0/1)",
        (("left", {}), ("right", {})),
    ),
    "morph": (
        _cmd_morph,
        "test for a morphism between two trees/formulas; mode flags apply to formulas only",
        (("source", {}), ("target", {})),
    ),
    "check-identity": (
        _cmd_check_identity,
        "does the identity hold in the whole variety?",
        (("lhs", {}), ("rhs", {})),
    ),
    "gen": (
        _cmd_gen,
        "generate a random tree (JSON), deterministic in --seed",
        (("--edges", {"type": int, "required": True}), _DOT),
    ),
    "bench": (
        _cmd_bench,
        "time eq and prune over a size ladder, print CSV",
        (
            ("--sizes", {"default": "100,200,400,800", "help": "comma-separated edge counts"}),
            ("--reps", {"type": int, "default": 3}),
        ),
    ),
    "selftest": (_cmd_selftest, "run the oracle-equivalence and identity suites", ()),
}


def main(argv=None) -> int:
    try:
        args = _parse_lean(argv)
    except _Fallback:
        args = build_parser().parse_args(argv)
    if not 0 <= args.seed < 2**64:
        print("--seed must fit in 64 unsigned bits", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command][0](args)
    except (Error, ValueError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2
    except RecursionError:
        print("input nested too deeply", file=sys.stderr)
        return 2
    except MemoryError:
        print("out of memory", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
