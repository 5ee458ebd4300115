from __future__ import annotations

import pickle
from itertools import product
from random import Random

import pytest
from hypothesis import given

from adequate import (
    Alphabet,
    AlphabetMismatch,
    BareGroup,
    DanglingUnary,
    EmptyNotAllowed,
    Formula,
    FormulaError,
    Mode,
    OpNotInSignature,
    Sidedness,
    Unary,
    UnaryOp,
    UnbalancedParenthesis,
    UnknownSymbol,
    canonical_formula,
    canonical_word,
    concat,
    evaluate,
    occurrence_count,
    occurring_letters,
    parse,
    render,
)
from adequate.generate import enumerate_trees, random_formula, random_tree
from corpora import AB, MODES, random_texts
from oracles import parse_by_index
from strategies import formulas, large_words

SEMIGROUP = Mode(semigroup=True)
LEFT = Mode(Sidedness.LEFT)
RIGHT = Mode(Sidedness.RIGHT)


def test_parse_letter_then_star_group(ab):
    f = parse("a(b)*", ab)
    assert f == Formula(("a", Unary(UnaryOp.STAR, Formula(("b",), ab))), ab)
    assert f.factors == ("a", Unary(UnaryOp.STAR, parse("b", ab)))


def test_parse_nested_groups(ab):
    f = parse("((a)+b)*", ab)
    inner = Unary(UnaryOp.PLUS, Formula(("a",), ab))
    assert f == Formula((Unary(UnaryOp.STAR, Formula((inner, "b"), ab)),), ab)


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
    assert render(Formula((Unary(UnaryOp.PLUS, Formula(("a",), ab)),), ab)) == "(a)+"


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


def test_concat_joins_texts_without_building_nodes(ab):
    pairs = [(" a ( b ) + ", "(a)*b"), ("", "(b)+"), ("a", ""), ("", "")]
    pairs.append(tuple(large_words()[:2]))
    for left_text, right_text in pairs:
        left, right = parse(left_text, ab), parse(right_text, ab)
        joined = concat(left, right)
        assert joined == parse(left_text + right_text, ab)
        for f in (left, right, joined):
            assert "factors" not in vars(f)
    with pytest.raises(AlphabetMismatch):
        concat(parse("a", ab), parse("a", Alphabet.from_string("abc")))


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
    assert "b" in ab and "z" not in ab and "+" not in ab
    with pytest.raises(UnknownSymbol):
        ab.index("z")


# The mode None plus every Mode: 13 parser configurations.
ALL_MODES = (None,) + MODES


def _outcome(parser, text, mode):
    try:
        return parser(text, AB, mode)
    except Exception as exc:  # the type, offset and message must all agree
        return type(exc), getattr(exc, "offset", None), str(exc)


def test_parse_matches_reference_on_random_texts():
    raised = 0
    for text in random_texts():
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
    for text in large_words():
        spaced = " ".join(text)
        for mode in ALL_MODES:
            assert _outcome(parse, text, mode) == _outcome(parse_by_index, text, mode)
        f = parse(spaced, AB)
        assert f == parse_by_index(spaced, AB)
        assert occurrence_count(f) >= 800


def test_parse_matches_reference_on_every_short_text():
    # Every text of at most five characters over these eight symbols: each
    # condition of the string-operation check is the only one that rejects
    # some of them.
    raised = 0
    for length in range(6):
        for chars in product("ab()+* c", repeat=length):
            text = "".join(chars)
            for mode in ALL_MODES:
                got = _outcome(parse, text, mode)
                assert got == _outcome(parse_by_index, text, mode), (text, mode)
                raised += type(got) is tuple
    assert 0 < raised < 37449 * len(ALL_MODES)


def test_parse_matches_reference_across_whitespace():
    # Tabs, newlines and no-break spaces between the tokens of valid and
    # invalid texts, including between a ")" and its operator.
    rng = Random(5152)
    texts = random_texts()[:600] + [canonical_word(t) for t in enumerate_trees(3, AB)]
    for text in texts:
        spaced = "".join(ch + rng.choice(("", "\t", "\n", "\u00a0", " \n\u00a0")) for ch in text)
        for mode in ALL_MODES:
            assert _outcome(parse, spaced, mode) == _outcome(parse_by_index, spaced, mode)


def test_parse_shares_letters(ab):
    f = parse("ab(a)+", ab)
    assert f.factors[0] == "a"


def _letters(formula):
    """The formula's letter factors in text order."""
    stack = list(reversed(formula.factors))
    while stack:
        item = stack.pop()
        if type(item) is str:
            yield item
        else:
            stack.extend(reversed(item.body.factors))


def _pinned_texts():
    texts = []
    for text in random_texts():
        try:
            parse(text, AB)
        except FormulaError:
            continue
        texts.append(text)
    for text in large_words():
        texts += [text, " ".join(text)]
    return texts


def test_public_formula_api_is_pinned():
    abc = Alphabet.from_string("abc")
    texts = _pinned_texts()
    assert len(texts) > 300
    for text in texts:
        f, twin = parse(text, AB), parse_by_index(text, AB)
        assert repr(f) == repr(twin)
        assert f == twin and twin == f and hash(f) == hash(twin)
        assert f != parse(text, abc) and f != Formula(twin.factors, abc)
        assert f.factors == twin.factors
        letters = list(_letters(f))
        assert occurrence_count(f) == occurrence_count(twin) == len(letters)
        assert occurring_letters(f) == tuple(dict.fromkeys(letters))
        again = pickle.loads(pickle.dumps(f))
        assert again == f and hash(again) == hash(f) and repr(again) == repr(f)
        assert Formula(twin.factors, AB) == f


def test_formulas_differ_when_their_texts_differ():
    texts = sorted({render(parse(text, AB)) for text in _pinned_texts()})
    formulas = [parse(text, AB) for text in texts]
    assert len(set(formulas)) == len(texts)
    for f, g in zip(formulas, formulas[1:]):
        assert f != g


def test_formulas_compare_by_alphabet_and_text(ab):
    abc = Alphabet.from_string("abc")
    body = Formula(("a",), abc)
    mixed = Formula((Unary(UnaryOp.PLUS, body),), ab)
    assert mixed == parse("(a)+", ab) and hash(mixed) == hash(parse("(a)+", ab))
    assert mixed != parse("(a)+", abc)
    assert Formula(["a"], ab) == parse("a", ab)
    assert Formula(("a", "b"), ab) == parse("ab", ab)


def test_letters_no_text_can_hold_are_rejected(ab):
    # No text over ``ab`` holds "z" either, even in a body over an alphabet
    # that has it: the outermost alphabet decides, when the formula is built.
    abz = Alphabet.from_string("abz")
    for bad in ("ab", "zz", ")+", "", "(", ")", "+", "*", "z"):
        for body_alphabet in (ab, abz):
            with pytest.raises(UnknownSymbol) as info:
                Formula(("a", Unary(UnaryOp.STAR, Formula((bad,), body_alphabet))), ab)
            assert str(info.value) == f"UnknownSymbol: {bad!r} is not a generator"
        with pytest.raises(UnknownSymbol) as info:
            Formula(("a", bad), ab)
        assert str(info.value) == f"UnknownSymbol: {bad!r} is not a generator"
    with pytest.raises(UnknownSymbol, match="^UnknownSymbol: 'c' is not a generator$"):
        Formula(("c",), ab)


def test_factors_that_are_not_nodes_are_rejected(ab):
    for factors in ((1,), ("a", 1), (b"a",), ("a", None), (parse("a", ab),)):
        with pytest.raises(TypeError):
            Formula(factors, ab)


def test_unary_nodes_take_an_operator_and_a_formula(ab):
    a = parse("a", ab)
    for op, body in (("+", a), (UnaryOp.PLUS, "a"), (UnaryOp.STAR, None), ("*", "a")):
        with pytest.raises(TypeError):
            Unary(op, body)
    with pytest.raises(TypeError):
        Formula((Unary("+", a),), ab)
    with pytest.raises(TypeError):
        Formula((Unary(UnaryOp.PLUS, "a"),), ab)
    assert Formula((Unary(UnaryOp.PLUS, a),), ab) == parse("(a)+", ab)


def test_modes_take_a_sidedness_and_two_bools():
    # A string sidedness once built a mode that admitted only "+", the
    # right-sided signature, whatever side the string named.
    for args, kwargs in (
        (("left",), {}),
        ((None,), {}),
        ((Sidedness.LEFT,), {"semigroup": "no"}),
        ((Sidedness.LEFT, 1), {}),
        ((), {"swap_sided_ops": 0}),
        ((), {"semigroup": None}),
    ):
        with pytest.raises(TypeError):
            Mode(*args, **kwargs)
    assert len(set(MODES)) == 12
    for mode in MODES:
        assert Mode(mode.sidedness, mode.semigroup, mode.swap_sided_ops) == mode


def test_every_constructor_gives_a_formula_that_holds_its_text():
    abc = Alphabet.from_string("abc")
    rng = Random(2323)
    built = [parse(text, AB) for text in _pinned_texts()]
    for _ in range(200):
        alphabet = rng.choice((AB, abc))
        built.append(random_formula(rng, alphabet, mode=rng.choice(MODES)))
        built.append(canonical_formula(random_tree(rng, rng.randrange(30), alphabet)))
    built += [concat(f, g) for f, g in zip(built, built[1:]) if f.alphabet == g.alphabet]
    built += [Formula(f.factors, f.alphabet) for f in built[:100]]
    while built:
        f = built.pop()
        assert set(render(f)) <= set(f.alphabet.letters) | set("()+*")
        assert vars(f).keys() <= {"_text", "alphabet", "factors"}
        assert Formula(f.factors, f.alphabet) == f
        built += [item.body for item in f.factors if type(item) is Unary]


def test_parsed_formulas_build_factors_once(ab):
    f = parse(" a ( b ( a ) * ) + ", ab)
    assert "factors" not in vars(f) and render(f) == "a(b(a)*)+"
    assert f.factors is f.factors
    assert render(f.factors[1].body) == "b(a)*"


def test_deeply_nested_formulas_render_and_evaluate(ab):
    depth = 5000
    text = "(" * depth + "a" + ")+" * depth
    f = parse(text, ab)
    node_built = Formula(f.factors, ab)
    assert render(node_built) == text and node_built == f
    assert render(f.factors[0].body) == text[1:-2]
    assert len(evaluate(node_built).edges) == 1
