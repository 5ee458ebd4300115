from __future__ import annotations

from random import Random

import pytest
from hypothesis import given

from adequate import (
    Alphabet,
    BareGroup,
    DanglingUnary,
    EmptyNotAllowed,
    Formula,
    Letter,
    Mode,
    OpNotInSignature,
    Sidedness,
    Unary,
    UnaryOp,
    UnbalancedParenthesis,
    UnknownSymbol,
    canonical_word,
    concat,
    occurrence_count,
    occurring_letters,
    parse,
    render,
)
from adequate.generate import enumerate_trees, random_tree
from oracles import parse_by_index
from strategies import AB, formulas

SEMIGROUP = Mode(semigroup=True)
LEFT = Mode(Sidedness.LEFT)
RIGHT = Mode(Sidedness.RIGHT)


def test_parse_letter_then_star_group(ab):
    f = parse("a(b)*", ab)
    assert f == Formula(
        (Letter("a"), Unary(UnaryOp.STAR, Formula((Letter("b"),), ab))), ab
    )


def test_parse_nested_groups(ab):
    f = parse("((a)+b)*", ab)
    inner = Unary(UnaryOp.PLUS, Formula((Letter("a"),), ab))
    assert f == Formula((Unary(UnaryOp.STAR, Formula((inner, Letter("b")), ab)),), ab)


def test_parse_empty_monoid(ab):
    assert parse("", ab) == Formula((), ab)


def test_parse_whitespace_ignored(ab):
    assert parse(" a ( b ) * ", ab) == parse("a(b)*", ab)


def test_unbalanced_open(ab):
    with pytest.raises(UnbalancedParenthesis) as info:
        parse("(a", ab)
    assert str(info.value) == "UnbalancedParenthesis at offset 2"


def test_unbalanced_close(ab):
    with pytest.raises(UnbalancedParenthesis):
        parse("a)", ab)


def test_unknown_symbol(ab):
    with pytest.raises(UnknownSymbol):
        parse("ac", ab)


def test_dangling_unary(ab):
    with pytest.raises(DanglingUnary):
        parse("a+", ab)
    with pytest.raises(DanglingUnary):
        parse("*", ab)


def test_bare_group(ab):
    with pytest.raises(BareGroup):
        parse("(a)", ab)
    with pytest.raises(BareGroup):
        parse("(a)b", ab)


def test_semigroup_rejects_empty(ab):
    with pytest.raises(EmptyNotAllowed):
        parse("", ab, SEMIGROUP)
    with pytest.raises(EmptyNotAllowed):
        parse("a()+", ab, SEMIGROUP)
    assert parse("a(b)+", ab, SEMIGROUP).factors


def test_mode_signature_restrictions(ab):
    assert parse("a(b)*", ab, LEFT)
    with pytest.raises(OpNotInSignature):
        parse("(a)+", ab, LEFT)
    assert parse("(a)+", ab, RIGHT)
    with pytest.raises(OpNotInSignature):
        parse("(a)*", ab, RIGHT)


def test_swap_sided_ops(ab):
    swapped_left = Mode(Sidedness.LEFT, swap_sided_ops=True)
    assert parse("(a)+", ab, swapped_left)
    with pytest.raises(OpNotInSignature):
        parse("(a)*", ab, swapped_left)


def test_render_examples(ab):
    assert render(parse("a(b)*", ab)) == "a(b)*"
    assert render(Formula((), ab)) == ""
    assert render(Formula((Unary(UnaryOp.PLUS, Formula((Letter("a"),), ab)),), ab)) == "(a)+"


def test_occurrence_count(ab):
    assert occurrence_count(parse("a(b)*", ab)) == 2
    assert occurrence_count(parse("", ab)) == 0
    assert occurrence_count(parse("((a)+a)*", ab)) == 2


def test_occurring_letters(ab):
    assert occurring_letters(parse("b(a)*b", ab)) == ("b", "a")
    assert occurring_letters(parse("", ab)) == ()


def test_concat(ab):
    f = concat(parse("a", ab), parse("(b)+", ab))
    assert render(f) == "a(b)+"


@given(formulas())
def test_parse_render_round_trip(f):
    assert parse(render(f), AB) == f


@given(formulas())
def test_occurrences_count_evaluation_edges(f):
    from adequate import evaluate

    assert occurrence_count(f) == len(evaluate(f).edges)


@given(formulas())
def test_render_is_fixpoint_of_reparse(f):
    text = render(f)
    assert render(parse(text, AB)) == text


def test_alphabet_rejects_bad_letters():
    for bad in ("", "a(", "a a", "aa"):
        with pytest.raises(ValueError):
            Alphabet.from_string(bad)


def test_alphabet_index(ab):
    assert ab.index("b") == 1
    with pytest.raises(UnknownSymbol):
        ab.index("z")


# The mode None plus every Mode: 13 parser configurations.
ALL_MODES = (None,) + tuple(
    Mode(sidedness, semigroup, swap)
    for sidedness in Sidedness
    for semigroup in (False, True)
    for swap in (False, True)
)


def _outcome(parser, text, mode):
    try:
        return parser(text, AB, mode)
    except Exception as exc:  # the type, offset and message must all agree
        return type(exc), getattr(exc, "offset", None), str(exc)


def test_parse_matches_reference_on_random_texts():
    rng = Random(5150)
    symbols = "ab()+* c\t"
    raised = 0
    for _ in range(3000):
        text = "".join(rng.choice(symbols) for _ in range(rng.randrange(16)))
        for mode in ALL_MODES:
            got = _outcome(parse, text, mode)
            assert got == _outcome(parse_by_index, text, mode), (text, mode)
            raised += type(got) is tuple
    assert 0 < raised < 3000 * len(ALL_MODES)


def test_parse_matches_reference_on_corpus_words():
    for t in enumerate_trees(4, AB):
        text = canonical_word(t)
        for mode in ALL_MODES:
            assert _outcome(parse, text, mode) == _outcome(parse_by_index, text, mode)


def test_parse_matches_reference_on_large_words():
    rng = Random(5151)
    for _ in range(4):
        text = canonical_word(random_tree(rng, 800, AB))
        spaced = " ".join(text)
        for mode in ALL_MODES:
            assert _outcome(parse, text, mode) == _outcome(parse_by_index, text, mode)
        f = parse(spaced, AB)
        assert f == parse_by_index(spaced, AB)
        assert occurrence_count(f) >= 800


def test_parse_shares_letters(ab):
    f = parse("ab(a)+", ab)
    assert f.factors[0] is f.factors[2].body.factors[0]
    assert f.factors[0] == Letter("a")
