from __future__ import annotations

from random import Random

import pytest

from adequate import (
    Alphabet,
    Mode,
    Sidedness,
    ensure_admissible,
    occurrence_count,
    parse,
    render,
    to_json,
    validate,
)
from adequate.generate import (
    enumerate_trees,
    random_formula,
    random_relabelling,
    random_tree,
)
from oracles import random_tree_by_dfs, structural_key


def test_random_tree_deterministic(ab):
    a = random_tree(Random(123), 20, ab)
    b = random_tree(Random(123), 20, ab)
    assert to_json(a) == to_json(b)


def test_random_tree_trivial(ab):
    t = random_tree(Random(1), 0, ab)
    assert t.vertex_count == 1 and not t.edges


def test_random_tree_rejects_negative_edge_counts(ab):
    rng = Random(0)
    state = rng.getstate()
    for edge_count in (-1, -5):
        with pytest.raises(ValueError) as info:
            random_tree(rng, edge_count, ab)
        assert str(info.value) == f"edge_count must be non-negative, got {edge_count}"
        assert rng.getstate() == state


def test_random_tree_valid_and_sized(ab):
    rng = Random(9)
    for edges in (1, 2, 5, 17, 50):
        t = random_tree(rng, edges, ab)
        assert len(t.edges) == edges
        assert validate(t.vertex_count, t.start, t.end, t.edges, ab) == t
        assert t.start == 0


def test_random_tree_matches_dfs_reference():
    # The same JSON and the same generator state after every call, along
    # one stream per seed and alphabet.
    for letters in ("ab", "abc", "x"):
        alphabet = Alphabet.from_string(letters)
        for seed in range(300):
            rng, ref = Random(seed), Random(seed)
            for size in (0, 1, 2, 3, 7, 20, 60, 200):
                tree = random_tree(rng, size, alphabet)
                assert to_json(tree) == to_json(random_tree_by_dfs(ref, size, alphabet))
                assert rng.getstate() == ref.getstate()


def test_random_relabelling_preserves_iso_class(ab):
    rng = Random(5150)
    for _ in range(20):
        t = random_tree(rng, rng.randrange(1, 12), ab)
        relabelled = random_relabelling(rng, t)
        assert validate(
            relabelled.vertex_count,
            relabelled.start,
            relabelled.end,
            relabelled.edges,
            ab,
        ) == relabelled
        assert structural_key(relabelled) == structural_key(t)


def test_random_formula_round_trips_and_bounds(ab):
    rng = Random(777)
    for _ in range(100):
        f = random_formula(rng, ab, max_len=24)
        text = render(f)
        assert len(text) <= 24
        assert parse(text, ab) == f


def test_random_formula_respects_modes(ab):
    rng = Random(778)
    for mode in (
        Mode(Sidedness.LEFT),
        Mode(Sidedness.RIGHT),
        Mode(semigroup=True),
        Mode(Sidedness.LEFT, semigroup=True),
    ):
        for _ in range(60):
            f = random_formula(rng, ab, max_len=20, mode=mode)
            ensure_admissible(f, mode)
            if mode.semigroup:
                assert occurrence_count(f) >= 1
            assert len(render(f)) <= 20


def test_enumerate_trees_counts(ab):
    # Hand-derived class counts per edge total: 1, 6, 46, 380, 3315.
    trees = enumerate_trees(4, ab)
    by_edges = {}
    for t in trees:
        by_edges[len(t.edges)] = by_edges.get(len(t.edges), 0) + 1
    assert by_edges == {0: 1, 1: 6, 2: 46, 3: 380, 4: 3315}


def test_enumerate_trees_valid_and_distinct(small_tree_corpus, ab):
    keys = set()
    for t in small_tree_corpus:
        assert validate(t.vertex_count, t.start, t.end, t.edges, ab) == t
        keys.add(structural_key(t))
    assert len(keys) == len(small_tree_corpus)
