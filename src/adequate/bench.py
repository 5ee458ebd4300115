"""The ``bench`` and ``selftest`` commands: timings and oracle suites.

Both need the generators and the brute-force oracles, which no decision
path uses, so the CLI imports this module only when one of them runs.
"""

from __future__ import annotations

import math
import statistics
import time
from random import Random

from .canonical import canonical_formula, canonical_word
from .formula import Alphabet, Mode, parse
from .generate import enumerate_trees, random_tree
from .homomorphism import exists_morphism
from .oracles import exists_morphism_bruteforce, minimal_retract_bruteforce
from .pruning import prune
from .solver import (
    KNOWN_IDENTITIES,
    KNOWN_NON_IDENTITIES,
    _identity_alphabet,
    check_identity,
    equal,
)


def run_bench(
    sizes: list[int], reps: int, alphabet: Alphabet, seed: int = 0
) -> tuple[list[tuple[int, float, float]], float, float]:
    """Mean eq and prune times per size, plus fitted log-log slopes."""
    rng = Random(seed)
    mode = Mode()
    rows = []
    for size in sizes:
        eq_times = []
        prune_times = []
        for _ in range(reps):
            s1 = canonical_word(random_tree(rng, size, alphabet))
            s2 = canonical_word(random_tree(rng, size, alphabet))
            started = time.perf_counter()
            equal(parse(s1, alphabet, mode), parse(s2, alphabet, mode), mode)
            eq_times.append(time.perf_counter() - started)
            target = random_tree(rng, size, alphabet)
            started = time.perf_counter()
            prune(target)
            prune_times.append(time.perf_counter() - started)
        rows.append((size, sum(eq_times) / reps, sum(prune_times) / reps))
    slope_eq = _loglog_slope([(s, t) for s, t, _ in rows])
    slope_prune = _loglog_slope([(s, t) for s, _, t in rows])
    return rows, slope_eq, slope_prune


def _loglog_slope(points: list[tuple[int, float]]) -> float:
    # Sizes that do not vary fit no slope; rounding can hide that from the fit.
    if len({s for s, _ in points}) < 2:
        return 0.0
    xs = [math.log(s) for s, _ in points]
    ys = [math.log(max(t, 1e-9)) for _, t in points]
    return statistics.linear_regression(xs, ys).slope


def run_selftest(alphabet: Alphabet, seed: int = 0, out=print) -> bool:
    """Small oracle-equivalence and identity suites; True when all pass."""
    rng = Random(seed)
    ok = True

    trees = enumerate_trees(2, alphabet)
    pairs = [(t1, t2) for t1 in trees for t2 in trees]
    for _ in range(300):
        t1 = random_tree(rng, rng.randrange(8), alphabet)
        pairs.append((t1, random_tree(rng, rng.randrange(8), alphabet)))
    bad = sum(exists_morphism(t1, t2) != exists_morphism_bruteforce(t1, t2) for t1, t2 in pairs)
    ok &= bad == 0
    out(f"morphism-oracle: {len(pairs)} pairs, {bad} disagreements")

    trees += [random_tree(rng, rng.randrange(7), alphabet) for _ in range(200)]
    bad = sum(
        canonical_formula(prune(tree).tree) != canonical_formula(minimal_retract_bruteforce(tree))
        for tree in trees
    )
    ok &= bad == 0
    out(f"pruning-oracle: {len(trees)} trees, {bad} disagreements")

    mode = Mode()
    suite = [(pair, True) for pair in KNOWN_IDENTITIES]
    suite += [(pair, False) for pair in KNOWN_NON_IDENTITIES]
    failures = 0
    for (lhs, rhs), expected in suite:
        letters = _identity_alphabet(lhs, rhs)
        if check_identity(parse(lhs, letters, mode), parse(rhs, letters, mode), mode) != expected:
            failures += 1
    ok &= failures == 0
    out(f"identity-suite: {len(suite)} entries, {failures} failures")
    return ok
