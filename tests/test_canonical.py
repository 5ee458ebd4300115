from __future__ import annotations

from random import Random

from hypothesis import given, settings

from adequate import (
    Alphabet,
    Unary,
    base_tree,
    canonical_formula,
    canonical_word,
    evaluate,
    parse,
    prune,
    render,
)
from adequate.generate import enumerate_trees, random_relabelling, random_tree
from oracles import canonical_word_by_bfs, evaluate_roundtrip_check, structural_key
from strategies import trees


def test_examples(ab):
    assert canonical_word(base_tree("a", ab)) == "a"
    assert canonical_word(evaluate(parse("(a)+", ab))) == "(a)+"
    assert canonical_word(prune(evaluate(parse("(b)+(a)+", ab))).tree) == "(a)+(b)+"
    assert canonical_word(evaluate(parse("(a(b)*)+", ab))) == "(a(b)*)+"
    assert canonical_word(evaluate(parse("", ab))) == ""


def test_canonical_formula_matches_word(ab):
    t = evaluate(parse("(b)+(a)+", ab))
    assert render(canonical_formula(t)) == canonical_word(t)


def test_parse_accepts_every_canonical_word(ab):
    # canonical_formula builds its formula from the word without parsing it.
    rng = Random(4242)
    abc = Alphabet.from_string("abc")
    corpus = enumerate_trees(4, ab) + enumerate_trees(2, abc)
    corpus += [random_tree(rng, rng.randrange(60), rng.choice((ab, abc))) for _ in range(200)]
    corpus += [prune(t).tree for t in corpus[-50:]]
    for t in corpus:
        built, parsed = canonical_formula(t), parse(canonical_word(t), t.alphabet)
        assert parsed == built and hash(parsed) == hash(built)
        assert render(built) == render(parsed) and built.factors == parsed.factors


def test_mixed_orientation_sort(ab):
    # Six sibling branches of mixed orientation at the basepoint.
    t = evaluate(parse("(b)+(a)*(a)+(b)*(a)+(a)*", ab))
    word = canonical_word(t)
    assert word == "(a)+(a)+(a)*(a)*(b)+(b)*"
    assert evaluate_roundtrip_check(t)


@given(trees(max_edges=14))
@settings(max_examples=50)
def test_representation_independence(t):
    rng = Random(5)
    expected = canonical_word(t)
    for _ in range(8):
        assert canonical_word(random_relabelling(rng, t)) == expected


@given(trees())
def test_roundtrip(t):
    assert evaluate_roundtrip_check(t)


@given(trees())
def test_roundtrip_is_exact_isomorphism(t):
    # Stronger than the mutual-morphism proxy: equal structural keys.
    assert structural_key(evaluate(canonical_formula(t))) == structural_key(t)


@given(trees())
def test_length_bound(t):
    assert len(canonical_word(t)) <= 4 * len(t.edges)


def _sorted_runs(formula):
    """Every maximal run of group factors must be nondecreasing in word order."""
    key = formula.alphabet.omega_key
    stack = [formula]
    while stack:
        current = stack.pop()
        run = []
        for factor in current.factors:
            if type(factor) is Unary:
                run.append("(" + render(factor.body) + ")" + factor.op.value)
                stack.append(factor.body)
            else:
                if any(key(a) > key(b) for a, b in zip(run, run[1:])):
                    return False
                run = []
        if any(key(a) > key(b) for a, b in zip(run, run[1:])):
            return False
    return True


@given(trees())
def test_subterms_are_sorted(t):
    assert _sorted_runs(canonical_formula(t))


def test_canonical_word_separates_iso_classes(small_tree_corpus):
    words = {}
    for t in small_tree_corpus:
        words.setdefault(canonical_word(t), []).append(structural_key(t))
    # same word -> same structural key, different words -> different keys
    assert all(len(set(keys)) == 1 for keys in words.values())
    assert len(words) == len(small_tree_corpus)


@given(trees(max_edges=8), trees(max_edges=8))
def test_word_equality_iff_isomorphic(t1, t2):
    assert (canonical_word(t1) == canonical_word(t2)) == (
        structural_key(t1) == structural_key(t2)
    )


def test_canonical_word_matches_bfs_reference(sweep_corpus):
    for t in sweep_corpus:
        assert canonical_word(t) == canonical_word_by_bfs(t)
        pruned = prune(t).tree
        assert canonical_word(pruned) == canonical_word_by_bfs(pruned)
