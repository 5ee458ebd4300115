from __future__ import annotations

from random import Random

import pytest
from hypothesis import HealthCheck, settings

from adequate import Alphabet, evaluate, parse, unpruned_plus, unpruned_product
from adequate.generate import enumerate_trees, random_relabelling, random_tree

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def ab() -> Alphabet:
    return Alphabet.from_string("ab")


@pytest.fixture(scope="session")
def small_tree_corpus(ab):
    """Every tree with at most 3 edges over {a, b}; 433 isomorphism classes."""
    return enumerate_trees(3, ab)


@pytest.fixture(scope="session")
def sweep_corpus(ab):
    """Trees for comparing traversal-based walks with their references:
    every tree with at most 4 edges over {a, b} and 3 over {a, b, c},
    seeded random trees of up to 400 edges, products that pruning folds,
    and star, chain and nest shapes."""
    abc = Alphabet.from_string("abc")
    rng = Random(20312)
    corpus = enumerate_trees(4, ab) + enumerate_trees(3, abc)
    for _ in range(60):
        x = random_tree(rng, rng.randrange(401), rng.choice((ab, abc)))
        corpus += [x, unpruned_product(unpruned_plus(random_relabelling(rng, x)), x)]
    for k in (1, 2, 3, 40, 400):
        for text in ("(a)+", "(a)*", "a", "(a)*a", "(ab)+", "(a(b)*)+"):
            corpus.append(evaluate(parse(text * k, ab)))
        corpus.append(evaluate(parse("(a" * k + ")+" * k, ab)))
        corpus.append(evaluate(parse("(b" * k + "a)*" * k, ab)))
    return corpus
