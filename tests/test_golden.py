"""Byte identity of what the library and the CLI output.

Each test hashes one kind of output over a fixed corpus and compares the
SHA-256 with a constant.  A change that alters a parse outcome, an answer, a
witness, a candidate set, tree JSON, a canonical word or a CLI byte fails
here; a change that means to alter one updates the constant and says why.
The corpora are seeded and use no timing, so the digests do not depend on
the Python version or the machine.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from random import Random

from adequate import (
    Alphabet,
    FormulaError,
    canonical_formula,
    canonical_word,
    candidate_sets,
    equal,
    extract_morphism,
    parse,
    prune,
    render,
    to_json,
)
from adequate.cli import _SIDEDNESS, main
from adequate.generate import enumerate_trees, random_formula, random_tree
from strategies import AB, MODES, random_texts

ABC = Alphabet.from_string("abc")
_MODE_NAMES = {sidedness: name for name, sidedness in _SIDEDNESS.items()}

PARSE_DIGEST = "75942ea89e8d29af65dd1b91374a2345c932ac1f20a400ae3f42b4bd09f6b135"
MORPHISM_DIGEST = "a1652604fc3557c7bed3676ee7c58daa89931bf6ea981c0ae765ac816e53851c"
PRUNE_DIGEST = "4b83d0324e42ec929f7a87e62df8ed73dca8c943f8a31bfe93cc83695d5ae5c9"
CLI_DIGEST = "4a2711ea76546a65a30cbc73dcd44078f91d0aa3fcbc8e79ce301041e485d94f"


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8", "backslashreplace") + b"\n")
    return h.hexdigest()


def _parse_outcomes():
    for text in random_texts():
        for mode in (None, *MODES):
            try:
                yield render(parse(text, AB, mode))
            except FormulaError as exc:
                yield f"{type(exc).__name__}: {exc}"


def _random_pairs():
    rng = Random(2323)
    for _ in range(150):
        alphabet = rng.choice((AB, ABC))
        x = random_tree(rng, rng.randrange(41), alphabet)
        y = random_tree(rng, rng.randrange(41), alphabet)
        core = prune(x).tree
        yield from ((x, y), (y, x), (x, core), (core, x))


def _morphism_outcomes():
    small = enumerate_trees(2, AB)
    pairs = [(x, y) for x in small for y in small] + list(_random_pairs())
    assert len(pairs) == 2809 + 600
    formulas = {}
    for x, y in pairs:
        fx = formulas.setdefault(id(x), canonical_formula(x))
        fy = formulas.setdefault(id(y), canonical_formula(y))
        witness = extract_morphism(x, y)
        yield repr((
            equal(fx, fy),
            None if witness is None else witness.mapping,
            candidate_sets(x, y).masks,
        ))


def _prune_outcomes():
    rng = Random(2424)
    trees = enumerate_trees(3, AB)
    assert len(trees) == 433
    trees += [random_tree(rng, rng.randrange(61), rng.choice((AB, ABC))) for _ in range(150)]
    for tree in trees:
        witness = prune(tree)
        yield f"{to_json(witness.tree)} {witness.embedding} {canonical_word(tree)}"


def _cli_argvs():
    rng = Random(2525)
    argvs = []
    for _ in range(60):
        mode = rng.choice(MODES)
        flags = ["--mode", _MODE_NAMES[mode.sidedness]]
        flags += ["--semigroup"] * mode.semigroup + ["--swap-sided-ops"] * mode.swap_sided_ops
        left = render(random_formula(rng, AB, max_len=20, mode=mode))
        right = render(random_formula(rng, AB, max_len=20, mode=mode))
        tree = to_json(random_tree(rng, rng.randrange(12), AB))
        argvs += [
            flags + ["eq", left, right],
            flags + ["eq", left, left + left],
            flags + ["nf", left],
            flags + ["eval", right],
            flags + ["check-identity", left.replace("a", "x"), right.replace("b", "y")],
            flags + ["morph", left, right],
            flags + ["morph", tree, left or "a"],
            flags + ["prune", tree],
            flags + ["prune", left + right],
            ["--seed", str(rng.randrange(2**64)), "gen", "--edges", str(rng.randrange(8))],
        ]
    argvs += [
        ["eval", "(a"],
        ["eval", "a)+"],
        ["eval", "(a)"],
        ["eval", "+a"],
        ["eval", "c"],
        ["nf", " ( a b ) * "],
        ["--semigroup", "eq", "", "a"],
        ["--semigroup", "eq", "()*a", "a"],
        ["--mode", "left", "eq", "(a)+", "a"],
        ["--mode", "left", "--swap-sided-ops", "eq", "(a)*", "a"],
        ["--alphabet", "aa", "eq", "a", "a"],
        ["--alphabet", "a(", "eq", "a", "a"],
        ["--alphabet", "xyz", "nf", "(xy)+(z)*x"],
        ["--alphabet", "aa", "check-identity", "x", "x"],
        ["check-identity", "(x)+(x)+", "(x)+"],
        ["check-identity", "xy", "yx"],
        ["--seed", str(2**64), "gen", "--edges", "2"],
        ["gen", "--edges", "-1"],
        ["prune", '{"alphabet":"ab","n":2,"start":0,"end":1,"edges":[]}'],
        ["prune", '{"alphabet":"ab","n":2,"start":0,"end":1,"edges":[{"l":"a","s":0,"t":5}]}'],
        ["prune", '{"alphabet":"ab","n":1,"start":0,"end":0,"edges":[{"l":"c","s":0,"t":0}]}'],
        ["morph", '{"alphabet":"abc","n":1,"start":0,"end":0,"edges":[]}', "a"],
        ["morph", "(a)+", "a"],
        ["morph", "a", "(a)+"],
    ]
    return argvs


def _cli_outcomes():
    for argv in _cli_argvs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        yield repr((argv, code, out.getvalue(), err.getvalue()))


def test_parse_outcomes_are_unchanged():
    assert _digest(_parse_outcomes()) == PARSE_DIGEST


def test_answers_witnesses_and_candidate_sets_are_unchanged():
    assert _digest(_morphism_outcomes()) == MORPHISM_DIGEST


def test_prune_json_and_canonical_words_are_unchanged():
    assert _digest(_prune_outcomes()) == PRUNE_DIGEST


def test_cli_bytes_are_unchanged():
    assert _digest(_cli_outcomes()) == CLI_DIGEST
