"""Hypothesis strategies shared across the test modules."""

from __future__ import annotations

from random import Random

from hypothesis import strategies as st

from adequate import Alphabet, Formula, Unary, UnaryOp, canonical_word
from adequate.generate import random_tree
from corpora import AB


def formulas(alphabet: Alphabet = AB, max_leaves: int = 12):
    letter = st.sampled_from(alphabet.letters)
    op = st.sampled_from((UnaryOp.PLUS, UnaryOp.STAR))

    def wrap(children):
        body = st.lists(children, max_size=4).map(lambda fs: Formula(tuple(fs), alphabet))
        return st.builds(Unary, op, body)

    factor = st.recursive(letter, wrap, max_leaves=max_leaves)
    return st.lists(factor, max_size=6).map(lambda fs: Formula(tuple(fs), alphabet))


def nonempty_formulas(alphabet: Alphabet = AB):
    return formulas(alphabet).filter(lambda f: bool(f.factors))


def trees(alphabet: Alphabet = AB, max_edges: int = 10):
    return st.builds(
        lambda seed, edges: random_tree(Random(seed), edges, alphabet),
        st.integers(0, 2**48 - 1),
        st.integers(0, max_edges),
    )


def large_words(seed: int = 5151) -> list[str]:
    """Canonical words of four random trees of 800 edges over ``ab``."""
    rng = Random(seed)
    return [canonical_word(random_tree(rng, 800, AB)) for _ in range(4)]
