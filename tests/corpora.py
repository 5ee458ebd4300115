"""Seeded corpora shared by the tests, with no test dependency.

``test_golden.py`` reads only these, so its digests also run without
pytest or hypothesis (see its ``__main__`` block).
"""

from __future__ import annotations

from random import Random

from adequate import Alphabet, Mode, Sidedness

AB = Alphabet.from_string("ab")

# Every Mode: 12 sidedness, semigroup and swap combinations.
MODES = tuple(
    Mode(sidedness, semigroup, swap)
    for sidedness in Sidedness
    for semigroup in (False, True)
    for swap in (False, True)
)


def random_texts() -> list[str]:
    """3000 short texts over ``ab()+* c\\t``: valid formulas and every error."""
    rng = Random(5150)
    symbols = "ab()+* c\t"
    return ["".join(rng.choice(symbols) for _ in range(rng.randrange(16))) for _ in range(3000)]
