from __future__ import annotations

from random import Random

from hypothesis import given, settings

from adequate import (
    base_tree,
    canonical_word,
    evaluate,
    exists_morphism,
    is_pruned,
    parse,
    prune,
    pruned_plus,
    pruned_product,
    pruned_star,
    pruned_vertex_set,
    trivial_tree,
    to_json,
    trunk,
    unpruned_plus,
    unpruned_product,
    validate,
)
from adequate import pruning
from adequate.generate import random_relabelling, random_tree
from adequate.oracles import minimal_retract_bruteforce
from oracles import is_core, morphism_exists_by_programme, propagate_unmemoised, pruned_vertex_set_by_adjacency
from strategies import trees


def shape(tree):
    return (tree.vertex_count, tree.start, tree.end, tuple(tree.edges))


def test_pruned_vertex_set_examples(ab):
    assert pruned_vertex_set(evaluate(parse("(a)+a", ab))) == {0, 2}
    assert pruned_vertex_set(base_tree("a", ab)) == {0, 1}
    assert pruned_vertex_set(evaluate(parse("(a)+(a)+", ab))) == {0, 1}


def test_prune_examples(ab):
    witness = prune(evaluate(parse("(a)+a", ab)))
    assert shape(witness.tree) == shape(base_tree("a", ab))
    assert witness.kept == {0, 2}
    assert witness.embedding == (0, 2)

    already = evaluate(parse("a(b)*", ab))
    again = prune(already)
    assert again.kept == set(range(already.vertex_count))
    assert shape(again.tree) == shape(already)

    assert shape(prune(trivial_tree(ab)).tree) == shape(trivial_tree(ab))


def test_pruned_witness_invariants(ab):
    t = evaluate(parse("(a)+(a)+b(a)+", ab))
    witness = prune(t)
    assert t.start in witness.kept and t.end in witness.kept
    assert is_pruned(witness.tree)
    assert validate(
        witness.tree.vertex_count,
        witness.tree.start,
        witness.tree.end,
        witness.tree.edges,
        ab,
    ) == witness.tree


def test_pruned_operations_examples(ab):
    a = base_tree("a", ab)
    plus_a = pruned_plus(a)
    assert shape(pruned_product(plus_a, a)) == shape(a)
    assert shape(pruned_product(trivial_tree(ab), a)) == shape(a)
    assert shape(pruned_star(pruned_star(a))) == shape(pruned_star(a))


def test_minimal_retract_examples(ab):
    assert shape(minimal_retract_bruteforce(evaluate(parse("(a)+a", ab)))) == shape(
        base_tree("a", ab)
    )
    assert shape(minimal_retract_bruteforce(base_tree("a", ab))) == shape(base_tree("a", ab))
    doubled = evaluate(parse("(ab)+(ab)+", ab))
    single = prune(evaluate(parse("(ab)+", ab))).tree
    assert canonical_word(minimal_retract_bruteforce(doubled)) == canonical_word(single)


def test_is_pruned_examples(ab):
    assert is_pruned(base_tree("a", ab)) is True
    assert is_pruned(evaluate(parse("(a)+a", ab))) is False
    assert is_pruned(trivial_tree(ab)) is True


@given(trees())
def test_prune_is_idempotent(t):
    pruned = prune(t).tree
    assert prune(pruned).kept == set(range(pruned.vertex_count))


@given(trees())
def test_pruned_tree_is_mutually_morphic(t):
    pruned = prune(t).tree
    assert exists_morphism(t, pruned)
    assert exists_morphism(pruned, t)


@given(trees())
def test_trunk_survives(t):
    kept = pruned_vertex_set(t)
    assert set(trunk(t).vertices) <= kept


@given(trees(max_edges=12))
@settings(max_examples=40)
def test_prune_is_representation_independent(t):
    rng = Random(99)
    expected = canonical_word(prune(t).tree)
    for _ in range(5):
        relabelled = random_relabelling(rng, t)
        assert canonical_word(prune(relabelled).tree) == expected


def test_oracle_equivalence_small(small_tree_corpus):
    for t in (t for t in small_tree_corpus if len(t.edges) <= 2):
        assert canonical_word(prune(t).tree) == canonical_word(minimal_retract_bruteforce(t))


@given(trees(max_edges=5))
@settings(max_examples=50)
def test_oracle_equivalence_random(t):
    assert canonical_word(prune(t).tree) == canonical_word(minimal_retract_bruteforce(t))


def test_core_judge_matches_bruteforce_on_small_trees(small_tree_corpus):
    for t in (t for t in small_tree_corpus if len(t.edges) <= 2):
        assert is_core(t) == (minimal_retract_bruteforce(t).vertex_count == t.vertex_count)


def test_prune_gives_a_core_by_the_judge(ab):
    # R = prune(T).tree maps to T and T to R, and R has no proper retract;
    # T itself is a core exactly when pruning keeps all of it.
    rng = Random(2108)
    shrunk = 0
    for _ in range(200):
        t = random_tree(rng, rng.randint(10, 60), ab)
        r = prune(t).tree
        assert morphism_exists_by_programme(r, t) and morphism_exists_by_programme(t, r)
        assert is_core(r)
        assert is_core(t) == (r.vertex_count == t.vertex_count)
        shrunk += r.vertex_count < t.vertex_count
    assert shrunk >= 50


def _nf(tree):
    return canonical_word(prune(tree).tree)


def test_algebraic_laws_on_random_operands(ab):
    rng = Random(4242)
    for _ in range(30):
        x = prune(random_tree(rng, rng.randrange(5), ab)).tree
        y = prune(random_tree(rng, rng.randrange(5), ab)).tree
        z = prune(random_tree(rng, rng.randrange(5), ab)).tree
        assert _nf(pruned_product(pruned_product(x, y), z)) == _nf(
            pruned_product(x, pruned_product(y, z))
        )
        assert _nf(pruned_product(pruned_plus(x), x)) == canonical_word(x)
        assert _nf(pruned_product(x, pruned_star(x))) == canonical_word(x)
        assert _nf(pruned_plus(pruned_plus(x))) == _nf(pruned_plus(x))
        assert _nf(pruned_star(pruned_star(x))) == _nf(pruned_star(x))
        assert _nf(pruned_product(pruned_plus(x), pruned_plus(y))) == _nf(
            pruned_product(pruned_plus(y), pruned_plus(x))
        )
        assert _nf(pruned_star(pruned_plus(x))) == _nf(pruned_plus(x))


def test_prune_matches_unmemoised_propagation_on_wide_trees(ab, monkeypatch):
    # The reference pass runs no forward pass, so its masks can be wider
    # than the library's; pruning must still give the same JSON and
    # canonical words.
    rng = Random(20250)
    cases = []
    for _ in range(6):
        x = random_tree(rng, rng.randrange(65, 801), ab)
        cases += [x, unpruned_product(unpruned_plus(random_relabelling(rng, x)), x)]
    fast = [prune(t).tree for t in cases]
    monkeypatch.setattr(pruning, "candidate_sets", propagate_unmemoised)
    slow = [prune(t).tree for t in cases]
    assert [to_json(t) for t in fast] == [to_json(t) for t in slow]
    assert [canonical_word(t) for t in fast] == [canonical_word(t) for t in slow]
    assert any(p.vertex_count < t.vertex_count for p, t in zip(fast, cases))


def test_sweep_matches_adjacency_reference(sweep_corpus):
    folded = 0
    for t in sweep_corpus:
        kept = pruned_vertex_set(t)
        assert kept == pruned_vertex_set_by_adjacency(t)
        folded += len(kept) < t.vertex_count
    assert folded > 100
