"""Certificates of the benchmark inputs, checked against the brute-force oracle.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q benchmark/test_inputs.py

Every tree here has at most 8 edges, so ``exists_morphism_bruteforce`` is a
trustworthy and fast judge.
"""

from __future__ import annotations

from random import Random

import pytest

from adequate import Alphabet, evaluate, exists_morphism_bruteforce, extract_morphism, from_json, parse

import inputs

MAX_EDGES = 8


def lib_tree(tree):
    return from_json(inputs.tree_json(tree))


def lib_eval(text: str, letters: str = "ab"):
    return evaluate(parse(text, Alphabet.from_string(letters)))


def same_element(s, t) -> bool:
    return exists_morphism_bruteforce(s, t) and exists_morphism_bruteforce(t, s)


def small_trees(seed: int, count: int):
    rng = Random(seed)
    return [inputs.random_tree(rng, rng.randint(0, MAX_EDGES)) for _ in range(count)]


def test_tree_text_evaluates_to_the_tree():
    for tree in small_trees(1, 300):
        text = inputs.tree_text(tree)
        evaluated = lib_eval(text)
        assert evaluated.vertex_count == tree[0]
        assert same_element(evaluated, lib_tree(tree))
        assert inputs.positions_of_text(text) == inputs.positions_of_tree(tree)


def test_canonical_text_is_an_isomorphism_invariant():
    rng = Random(2)
    for tree in small_trees(2, 200):
        assert inputs.tree_text(inputs.relabel(rng, tree), canonical=True) == inputs.tree_text(tree, canonical=True)


def test_position_certificate_never_rejects_a_morphism():
    trees = small_trees(3, 120)
    certified = 0
    for s in trees:
        for t in trees[:40]:
            if inputs.certified_no_morphism(inputs.positions_of_tree(s), inputs.positions_of_tree(t)):
                certified += 1
                assert not exists_morphism_bruteforce(lib_tree(s), lib_tree(t))
    assert certified > 1000


@pytest.mark.parametrize("letters", ["ab", "xy"])
def test_rewrites_keep_the_element(letters):
    rng = Random(4)
    for _ in range(150):
        f = inputs.tree_text(inputs.random_tree(rng, rng.randint(1, 5), letters))
        g = inputs.rewrite(rng, f, min(MAX_EDGES, inputs.edge_count(f) + rng.randint(0, 3)), rng.randint(1, 4))
        assert inputs.edge_count(g) <= MAX_EDGES + 5
        assert same_element(lib_eval(f, letters), lib_eval(g, letters)), (f, g)
        assert inputs.positions_of_text(f) == inputs.positions_of_text(g)


def test_certified_mutants_are_unequal():
    rng = Random(5)
    mutants = 0
    for _ in range(200):
        f = inputs.tree_text(inputs.random_tree(rng, rng.randint(2, MAX_EDGES)))
        m = inputs.mutate(rng, f)
        if m is None:
            continue
        mutants += 1
        assert inputs.edge_count(m) == inputs.edge_count(f)
        assert not same_element(lib_eval(f), lib_eval(m)), (f, m)
    assert mutants > 100


def test_cli_morph_answers_and_witnesses():
    rng = Random(6)
    checked = 0
    while checked < 150:
        (query,) = inputs._cli_morph(rng)
        source, target = (inputs.tree_from_json(arg) for arg in query["argv"][1:])
        if len(source[3]) > MAX_EDGES or len(target[3]) > MAX_EDGES:
            continue
        checked += 1
        s, t = lib_tree(source), lib_tree(target)
        assert exists_morphism_bruteforce(s, t) == (query["exit"] == 0)
        witness = extract_morphism(s, t)
        if witness is not None:
            mapping = list(witness.mapping)
            assert inputs.verify_witness(source, target, mapping)
            broken = mapping[:]
            broken[source[2]] = (broken[source[2]] + 1) % target[0]
            assert not inputs.verify_witness(source, target, broken)


def test_cli_queries_carry_consistent_answers():
    queries = inputs.cli_small(7, 400)
    assert {q["exit"] for q in queries} == {0, 1, 2}
    for q in queries:
        texts = [a for a in q["argv"][1:] if not a.startswith("{")]
        assert all(len(a) <= inputs.CLI_MAX_CHARS for a in texts)
        if q["kind"] == "eq" and max(inputs.edge_count(a) for a in texts) <= MAX_EDGES:
            assert same_element(lib_eval(texts[0]), lib_eval(texts[1])) == (q["exit"] == 0)
    pairs = {}
    for q in queries:
        if q["kind"] == "prune":
            pairs.setdefault(q["group"], []).append(inputs.tree_from_json(q["argv"][1]))
    checked = 0
    for first, second in (p for p in pairs.values() if len(p) == 2):
        if len(first[3]) <= MAX_EDGES + 1:
            checked += 1
            assert same_element(lib_tree(first), lib_tree(second))
    assert checked > 5


def test_workloads_are_seeded():
    assert inputs.eq_large(8, 4) == inputs.eq_large(8, 4)
    assert inputs.eq_large(8, 2) != inputs.eq_large(9, 2)
    assert inputs.cli_small(8, 50) == inputs.cli_small(8, 50)
