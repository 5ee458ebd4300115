from __future__ import annotations

from random import Random

import pytest
from hypothesis import given

from adequate import (
    Alphabet,
    UnaryOp,
    AlphabetMismatch,
    EmptyNotAllowed,
    FormulaError,
    KNOWN_IDENTITIES,
    KNOWN_NON_IDENTITIES,
    Mode,
    OpNotInSignature,
    Sidedness,
    check_identity,
    concat,
    equal,
    is_idempotent,
    normal_form,
    parse,
    render,
    trivial_tree,
)
from adequate import solver
from adequate.solver import _identity_alphabet
from adequate.generate import random_formula
from oracles import ensure_admissible_by_walk, identity_alphabet_by_loop, oracle_equal_texts
from strategies import AB, MODES, formulas, random_texts

XY = Alphabet.from_string("xy")
LEFT = Mode(Sidedness.LEFT)
TWO_SIDED = Mode()


def _wrap(f, op):
    from adequate import Formula, Unary

    return Formula((Unary(op, f),), f.alphabet)


def test_equal_examples():
    assert equal(parse("(x)+x", XY), parse("x", XY)) is True
    assert equal(parse("x(x)*", XY), parse("x", XY)) is True
    assert equal(parse("(x)+", XY), parse("(x)*", XY)) is False
    assert equal(parse("xy", XY), parse("yx", XY)) is False


def test_normal_form_examples(ab):
    assert render(normal_form(parse("(x)+x", XY))) == "x"
    assert render(normal_form(parse("(b)+(a)+", ab))) == "(a)+(b)+"
    assert render(normal_form(parse("x", XY))) == "x"


def test_check_identity_examples():
    assert check_identity(parse("(xy)+", XY), parse("(x(y)+)+", XY)) is True
    assert check_identity(parse("(x)+(y)+", XY), parse("(y)+(x)+", XY)) is True
    assert check_identity(parse("x", XY), parse("y", XY)) is False


def test_check_identity_grounds_over_occurring_letters():
    # Same identity written over disjoint alphabets still checks.
    pq = Alphabet.from_string("pq")
    assert check_identity(parse("(p)+p", pq), parse("p", pq)) is True


def test_check_identity_with_no_letters(ab):
    assert check_identity(parse("", ab), parse("", ab)) is True
    assert check_identity(parse("(()+)+", ab), parse("", ab)) is True


def test_is_idempotent_examples():
    assert is_idempotent(parse("(x)+", XY)) is True
    assert is_idempotent(parse("x", XY)) is False
    assert is_idempotent(parse("(x)+(y)*", XY)) is True


@given(formulas())
def test_is_idempotent_agrees_with_squaring(f):
    assert is_idempotent(f) == equal(f, concat(f, f))


def test_mode_enforcement():
    with pytest.raises(OpNotInSignature):
        equal(parse("(x)+", XY), parse("(x)+", XY), LEFT)
    with pytest.raises(EmptyNotAllowed):
        equal(parse("", XY), parse("x", XY), Mode(semigroup=True))
    with pytest.raises(AlphabetMismatch):
        equal(parse("x", XY), parse("a", Alphabet.from_string("ab")))


def test_known_identities_confirmed_by_oracle_then_solver():
    for lhs, rhs in KNOWN_IDENTITIES:
        assert oracle_equal_texts(lhs, rhs), (lhs, rhs)
        alphabet = _identity_alphabet(lhs, rhs)
        assert check_identity(parse(lhs, alphabet), parse(rhs, alphabet)) is True


def test_known_non_identities_confirmed_by_oracle_then_solver():
    for lhs, rhs in KNOWN_NON_IDENTITIES:
        assert not oracle_equal_texts(lhs, rhs), (lhs, rhs)
        alphabet = _identity_alphabet(lhs, rhs)
        assert check_identity(parse(lhs, alphabet), parse(rhs, alphabet)) is False


def _outcome(function, *texts):
    try:
        return function(*texts)
    except ValueError as exc:
        return type(exc), str(exc)


def test_identity_alphabet_matches_loop():
    # Whitespace that is not ASCII (U+00A0, U+2003, U+0085, \x1c) is skipped
    # like a space; a control character no alphabet admits raises the same
    # error on both sides.
    rng = Random(6061)
    symbols = "xy()+* \t\n\xa0\u2003\x85\x1c\u200b\x00é"
    for _ in range(3000):
        texts = ["".join(rng.choices(symbols, k=rng.randrange(12))) for _ in range(rng.randrange(1, 4))]
        assert _outcome(_identity_alphabet, *texts) == _outcome(identity_alphabet_by_loop, *texts), texts


@given(formulas())
def test_equal_is_reflexive(f):
    assert equal(f, f)


@given(formulas(max_leaves=8), formulas(max_leaves=8))
def test_equal_is_symmetric(f, g):
    assert equal(f, g) == equal(g, f)


def test_equal_transitive_and_congruent():
    rng = Random(31337)
    transitive_hits = 0
    for _ in range(250):
        f = random_formula(rng, AB, max_len=14)
        g = random_formula(rng, AB, max_len=14)
        h = random_formula(rng, AB, max_len=14)
        if equal(f, g):
            # congruence spot checks on an equal pair
            assert equal(concat(f, h), concat(g, h))
            assert equal(concat(h, f), concat(h, g))
            for op in (UnaryOp.PLUS, UnaryOp.STAR):
                assert equal(_wrap(f, op), _wrap(g, op))
            if equal(g, h):
                transitive_hits += 1
                assert equal(f, h)
    assert transitive_hits > 0


@given(formulas(max_leaves=8), formulas(max_leaves=8))
def test_equal_iff_same_normal_form(f, g):
    assert equal(f, g) == (render(normal_form(f)) == render(normal_form(g)))


@given(formulas(max_leaves=10))
def test_normal_form_is_idempotent_and_equal(f):
    nf = normal_form(f)
    assert equal(f, nf)
    assert render(normal_form(nf)) == render(nf)


def test_left_mode_agrees_with_two_sided():
    rng = Random(77)
    for _ in range(150):
        f = random_formula(rng, XY, max_len=16, mode=LEFT)
        g = random_formula(rng, XY, max_len=16, mode=LEFT)
        assert equal(f, g, LEFT) == equal(f, g, TWO_SIDED)


def test_left_mode_normal_form_stays_left_admissible():
    rng = Random(78)
    for _ in range(80):
        f = random_formula(rng, XY, max_len=16, mode=LEFT)
        nf_text = render(normal_form(f, LEFT))
        assert parse(nf_text, XY, LEFT) is not None


def test_swap_sided_ops_inverts_signature():
    swapped = Mode(Sidedness.LEFT, swap_sided_ops=True)
    assert equal(parse("(x)+x", XY, swapped), parse("x", XY, swapped), swapped)
    with pytest.raises(OpNotInSignature):
        equal(parse("(x)*", XY), parse("x", XY), swapped)


def test_semigroup_mode_round_trip():
    semi = Mode(semigroup=True)
    f = parse("(x)+x", XY, semi)
    assert render(normal_form(f, semi)) == "x"


def test_equal_raises_if_semigroup_formula_evaluates_to_identity(monkeypatch):
    semigroup = Mode(semigroup=True)
    f = parse("a", AB, semigroup)
    assert equal(f, f, semigroup)
    monkeypatch.setattr(solver, "evaluate", lambda formula: trivial_tree(formula.alphabet))
    with pytest.raises(RuntimeError):
        equal(f, f, semigroup)


@pytest.mark.parametrize("semigroup", (False, True))
@pytest.mark.parametrize("sidedness", tuple(Sidedness))
def test_normal_form_is_a_congruence_in_every_mode(sidedness, semigroup):
    mode = Mode(sidedness, semigroup)
    rng = Random(4040)
    for _ in range(120):
        f = random_formula(rng, AB, max_len=24, mode=mode)
        g = random_formula(rng, AB, max_len=24, mode=mode)
        via_forms = concat(normal_form(f, mode), normal_form(g, mode))
        assert render(normal_form(concat(f, g), mode)) == render(normal_form(via_forms, mode))


def test_ensure_admissible_skips_only_modes_that_admit_everything():
    f = parse("((a)*b)+", AB)
    solver.ensure_admissible(f, TWO_SIDED)
    solver.ensure_admissible(f, Mode(swap_sided_ops=True))
    for mode in (LEFT, Mode(Sidedness.RIGHT), Mode(semigroup=True)):
        with pytest.raises((OpNotInSignature, EmptyNotAllowed)):
            solver.ensure_admissible(concat(f, parse("()*", AB)), mode)


def _admissibility(check, formula, mode):
    try:
        check(formula, mode)
    except Exception as exc:  # the type and message must both agree
        return type(exc), str(exc)
    return None


def _assert_text_check_matches_walk(f):
    for mode in MODES:
        got = _admissibility(solver.ensure_admissible, f, mode)
        assert got == _admissibility(ensure_admissible_by_walk, f, mode), (render(f), mode)


def test_ensure_admissible_matches_walk_on_random_texts():
    outcomes = set()
    for text in random_texts():
        try:
            f = parse(text, AB)
        except FormulaError:
            continue
        _assert_text_check_matches_walk(f)
        outcomes.update(_admissibility(solver.ensure_admissible, f, m) for m in MODES)
    assert {None, (EmptyNotAllowed, "EmptyNotAllowed: empty group in semigroup mode")} < outcomes
    assert (OpNotInSignature, "OpNotInSignature: '*' is not in the signature of this mode") in outcomes


def test_ensure_admissible_matches_walk_on_random_formulas():
    rng = Random(4141)
    for _ in range(1500):
        f = random_formula(rng, AB, max_len=30, mode=Mode(semigroup=rng.random() < 0.5))
        _assert_text_check_matches_walk(f)
        _assert_text_check_matches_walk(concat(f, parse(rng.choice(("()+", "()*", "")), AB)))
