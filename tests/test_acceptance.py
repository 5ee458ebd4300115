"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The exhaustive morphism
sweep fans out over a small process pool; everything else is sequential.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from random import Random

from adequate import (
    Alphabet,
    canonical_word,
    check_identity,
    equal,
    evaluate,
    exists_morphism,
    normal_form,
    occurrence_count,
    parse,
    prune,
    render,
)
from adequate.bench import run_bench
from adequate.canonical import canonical_formula
from adequate.formula import Formula, Unary
from adequate.generate import (
    enumerate_trees,
    random_formula,
    random_relabelling,
    random_tree,
)
from adequate.oracles import exists_morphism_bruteforce, minimal_retract_bruteforce
from adequate.solver import KNOWN_IDENTITIES, KNOWN_NON_IDENTITIES, _identity_alphabet
from oracles import evaluate_roundtrip_check, oracle_equal_texts

AB = Alphabet.from_string("ab")
_EXHAUSTIVE: list = []
_STRIPES = 8


def _exhaustive():
    if not _EXHAUSTIVE:
        _EXHAUSTIVE.extend(enumerate_trees(4, AB))
    return _EXHAUSTIVE


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def _sweep_stripe(args):
    kind, offset, step = args
    trees = _exhaustive()
    checked = 0
    disagreements = 0
    if kind == "exhaustive":
        for i in range(offset, len(trees), step):
            t1 = trees[i]
            for t2 in trees:
                checked += 1
                if exists_morphism(t1, t2) != exists_morphism_bruteforce(t1, t2):
                    disagreements += 1
    else:
        rng = Random(101 + offset)
        for _ in range(step):
            t1 = random_tree(rng, rng.randrange(8), AB)
            t2 = random_tree(rng, rng.randrange(8), AB)
            checked += 1
            if exists_morphism(t1, t2) != exists_morphism_bruteforce(t1, t2):
                disagreements += 1
    return kind, checked, disagreements


def test_criterion_1_morphism_oracle_equivalence():
    trees = _exhaustive()
    random_pairs = 10_000
    tasks = [("exhaustive", k, _STRIPES) for k in range(_STRIPES)]
    tasks += [("random", k, random_pairs // _STRIPES) for k in range(_STRIPES)]
    workers = min(os.cpu_count() or 1, 4)
    if workers > 1:
        with mp.get_context("fork").Pool(workers) as pool:
            results = pool.map(_sweep_stripe, tasks)
    else:
        results = [_sweep_stripe(task) for task in tasks]
    exhaustive_checked = sum(c for kind, c, _ in results if kind == "exhaustive")
    random_checked = sum(c for kind, c, _ in results if kind == "random")
    disagreements = sum(d for _, _, d in results)
    assert exhaustive_checked == len(trees) ** 2
    assert random_checked == random_pairs
    _report(
        "criterion 1 (morphism oracle equivalence)",
        disagreements == 0,
        f"{exhaustive_checked} exhaustive + {random_checked} random pairs, "
        f"{disagreements} disagreements",
    )


def test_criterion_2_pruning_oracle_equivalence():
    disagreements = 0
    cases = 0
    for tree in _exhaustive():
        cases += 1
        if canonical_word(prune(tree).tree) != canonical_word(
            minimal_retract_bruteforce(tree)
        ):
            disagreements += 1
    rng = Random(202)
    for _ in range(2_000):
        tree = random_tree(rng, rng.randrange(8), AB)
        cases += 1
        if canonical_word(prune(tree).tree) != canonical_word(
            minimal_retract_bruteforce(tree)
        ):
            disagreements += 1
    _report(
        "criterion 2 (pruning oracle equivalence)",
        disagreements == 0,
        f"{cases} trees, {disagreements} disagreements",
    )


def test_criterion_3_representation_independence():
    rng = Random(303)
    failures = 0
    for _ in range(200):
        tree = random_tree(rng, rng.randrange(31), AB)
        expected = canonical_word(tree)
        for _ in range(100):
            if canonical_word(random_relabelling(rng, tree)) != expected:
                failures += 1
    _report(
        "criterion 3 (representation independence)",
        failures == 0,
        f"200 trees x 100 relabellings, {failures} mismatches",
    )


def _roundtrip_corpus():
    rng = Random(404)
    corpus = list(_exhaustive())
    for _ in range(400):
        corpus.append(random_tree(rng, rng.randrange(41), AB))
    return corpus


def test_criterion_4_roundtrip_and_length_bound():
    failures = 0
    corpus = _roundtrip_corpus()
    for tree in corpus:
        if not evaluate_roundtrip_check(tree):
            failures += 1
        if len(canonical_word(tree)) > 4 * len(tree.edges):
            failures += 1
        pruned = prune(tree).tree
        if canonical_word(
            prune(evaluate(canonical_formula(pruned))).tree
        ) != canonical_word(pruned):
            failures += 1
    _report(
        "criterion 4 (round trip and length bound)",
        failures == 0,
        f"{len(corpus)} trees, {failures} failures",
    )


def _duplicate_idempotent_factor(rng: Random, formula: Formula) -> Formula:
    spots = [i for i, factor in enumerate(formula.factors) if type(factor) is Unary]
    if not spots:
        return formula
    i = rng.choice(spots)
    factors = formula.factors[: i + 1] + formula.factors[i:]
    return Formula(factors, formula.alphabet)


def test_criterion_5_word_problem_coherence():
    rng = Random(505)
    mismatches = 0
    non_idempotent_nf = 0
    equal_pairs = 0
    for i in range(5_000):
        f = random_formula(rng, AB, max_len=40)
        roll = i % 4
        if roll == 0:
            g = normal_form(f)
        elif roll == 1:
            g = _duplicate_idempotent_factor(rng, f)
        else:
            g = random_formula(rng, AB, max_len=40)
        nf_f = normal_form(f)
        nf_g = normal_form(g)
        same = equal(f, g)
        equal_pairs += same
        if same != (render(nf_f) == render(nf_g)):
            mismatches += 1
        if render(normal_form(nf_f)) != render(nf_f):
            non_idempotent_nf += 1
    ok = mismatches == 0 and non_idempotent_nf == 0 and equal_pairs > 0
    _report(
        "criterion 5 (word problem coherence)",
        ok,
        f"5000 pairs ({equal_pairs} equal), {mismatches} eq/nf mismatches, "
        f"{non_idempotent_nf} non-idempotent normal forms",
    )


def test_criterion_6_identity_suites():
    failures = []
    for lhs, rhs in KNOWN_IDENTITIES:
        if not oracle_equal_texts(lhs, rhs):
            failures.append(("oracle rejects identity", lhs, rhs))
            continue
        alphabet = _identity_alphabet(lhs, rhs)
        if check_identity(parse(lhs, alphabet), parse(rhs, alphabet)) is not True:
            failures.append(("solver rejects identity", lhs, rhs))
    for lhs, rhs in KNOWN_NON_IDENTITIES:
        if oracle_equal_texts(lhs, rhs):
            failures.append(("oracle accepts non-identity", lhs, rhs))
            continue
        alphabet = _identity_alphabet(lhs, rhs)
        if check_identity(parse(lhs, alphabet), parse(rhs, alphabet)) is not False:
            failures.append(("solver accepts non-identity", lhs, rhs))
    _report(
        "criterion 6 (identity suites)",
        not failures,
        f"{len(KNOWN_IDENTITIES)} identities + {len(KNOWN_NON_IDENTITIES)} "
        f"non-identities, failures: {failures}",
    )


def test_criterion_7_complexity_scaling():
    sizes = [200, 400, 800, 1600, 3200]
    rows, slope_eq, slope_prune = run_bench(sizes, reps=2, alphabet=AB, seed=707)
    ok = 0.9 <= slope_eq <= 2.4 and 0.9 <= slope_prune <= 2.4
    table = "; ".join(f"{s}: eq {te:.3f}s prune {tp:.3f}s" for s, te, tp in rows)
    _report(
        "criterion 7 (complexity scaling)",
        ok,
        f"slope eq {slope_eq:.2f}, slope prune {slope_prune:.2f} (bounds [0.9, 2.4]); {table}",
    )


def test_criterion_8_edge_count_law():
    rng = Random(808)
    failures = 0
    checked = 0
    for _ in range(2_000):
        f = random_formula(rng, AB, max_len=40)
        checked += 1
        if len(evaluate(f).edges) != occurrence_count(f):
            failures += 1
    for tree in _exhaustive():
        f = canonical_formula(tree)
        checked += 1
        if len(evaluate(f).edges) != occurrence_count(f):
            failures += 1
    _report(
        "criterion 8 (edge count law)",
        failures == 0,
        f"{checked} formulas, {failures} violations",
    )
