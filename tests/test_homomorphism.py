from __future__ import annotations

from functools import reduce
from operator import or_
from random import Random

import pytest
from hypothesis import given

from adequate import (
    AlphabetMismatch,
    Alphabet,
    Edge,
    SigmaTree,
    UnknownSymbol,
    base_tree,
    canonical_word,
    candidate_sets,
    equal,
    evaluate,
    exists_morphism,
    extract_morphism,
    is_morphism,
    normal_form,
    parse,
    render,
    traversal,
    prune,
    trivial_tree,
    unpruned_plus,
    unpruned_product,
)
import adequate.tree
from adequate import homomorphism
from adequate.generate import enumerate_trees, random_relabelling, random_tree
from adequate.homomorphism import _propagate
from adequate.tree import _compute_traversal
from adequate.oracles import (
    _all_morphisms,
    exists_morphism_bruteforce,
    minimal_retract_bruteforce,
)
from oracles import (
    all_morphisms_recursive,
    edge_pairs,
    extract_morphism_by_scan,
    forward_reach,
    free_leaves,
    morphism_exists_by_programme,
    propagate_unmemoised,
    without_leaf,
)
from strategies import trees


def test_exists_examples(ab):
    plus_a_a = evaluate(parse("(a)+a", ab))
    a = base_tree("a", ab)
    assert exists_morphism(plus_a_a, a) is True
    assert exists_morphism(a, evaluate(parse("(a)+", ab))) is False
    assert exists_morphism(plus_a_a, plus_a_a) is True
    assert exists_morphism(
        evaluate(parse("(a)+(b)+", ab)), evaluate(parse("(b)+(a)+", ab))
    ) is True


def test_exists_matches_bruteforce_on_examples(ab):
    cases = [
        (evaluate(parse("(a)+a", ab)), base_tree("a", ab)),
        (base_tree("a", ab), evaluate(parse("(a)+", ab))),
        (evaluate(parse("(a)+(b)+", ab)), evaluate(parse("(b)+(a)+", ab))),
    ]
    for t1, t2 in cases:
        assert exists_morphism(t1, t2) == exists_morphism_bruteforce(t1, t2)


def test_bruteforce_trivial_cases(ab):
    assert exists_morphism_bruteforce(trivial_tree(ab), evaluate(parse("(a)+", ab))) is True
    assert exists_morphism_bruteforce(trivial_tree(ab), base_tree("a", ab)) is False


def test_extract_examples(ab):
    source, target = evaluate(parse("(a)+a", ab)), base_tree("a", ab)
    witness = extract_morphism(source, target)
    assert witness.mapping == (0, 1, 1)
    # Too short, an image out of range, the start moved.
    for mapping in ((0, 1), (0, 1, 2), (1, 1, 1)):
        assert is_morphism(source, target, mapping) is False
    assert extract_morphism(base_tree("a", ab), base_tree("a", ab)).mapping == (0, 1)
    assert [witness(v) for v in range(3)] == [0, 1, 1]
    assert extract_morphism(base_tree("a", ab), base_tree("b", ab)) is None


def test_alphabet_mismatch(ab):
    other = Alphabet.from_string("abc")
    with pytest.raises(AlphabetMismatch):
        exists_morphism(base_tree("a", ab), base_tree("a", other))
    with pytest.raises(AlphabetMismatch):
        exists_morphism_bruteforce(base_tree("a", ab), base_tree("a", other))


def test_every_morphism_check_rejects_other_alphabets(ab):
    # Under "ba" the same one-edge tree's label has another index, and "abc"
    # holds "ab": neither alphabet is "ab", so no check compares the trees.
    for other in (Alphabet.from_string("ba"), Alphabet.from_string("abc")):
        x, y = base_tree("a", ab), base_tree("a", other)
        for t1, t2 in ((x, y), (y, x)):
            for check in (exists_morphism, extract_morphism, candidate_sets):
                with pytest.raises(AlphabetMismatch):
                    check(t1, t2)
            with pytest.raises(AlphabetMismatch):
                is_morphism(t1, t2, (0, 1))


def test_label_outside_the_alphabet_raises_unknown_symbol(ab):
    # Unvalidated trees: the target's preimage table, the oracle's target
    # edge groups and the source's traversal all reject the label by the
    # alphabet's own check.
    stray = SigmaTree(ab, 2, 0, 1, (("z", 0, 1),))
    for decide in (exists_morphism, exists_morphism_bruteforce):
        with pytest.raises(UnknownSymbol):
            decide(base_tree("a", ab), stray)
        with pytest.raises(UnknownSymbol):
            decide(stray, base_tree("a", ab))


def test_exhaustive_agreement_small(small_tree_corpus):
    two_edge = [t for t in small_tree_corpus if len(t.edges) <= 2]
    for t1 in two_edge:
        for t2 in two_edge:
            assert exists_morphism(t1, t2) == exists_morphism_bruteforce(t1, t2)


def test_judge_matches_bruteforce_on_small_pairs(small_tree_corpus):
    two_edge = [t for t in small_tree_corpus if len(t.edges) <= 2]
    for t1 in two_edge:
        for t2 in two_edge:
            assert morphism_exists_by_programme(t1, t2) == exists_morphism_bruteforce(t1, t2)


def test_judge_matches_exists_morphism_on_random_pairs(ab):
    # Unrelated pairs are mostly rejected; a tree's pruned form and the tree
    # less a leaf map into it, and it maps onto its pruned form.
    rng = Random(2107)
    a = Alphabet.from_string("a")
    answers = []
    for _ in range(200):
        alphabet = rng.choice((a, ab))
        t = random_tree(rng, rng.randint(5, 40), alphabet)
        u = random_tree(rng, rng.randint(5, 40), alphabet)
        r, leaves = prune(t).tree, free_leaves(t)
        pairs = [(t, u), (u, t), (t, r), (r, t)]
        if leaves:
            d = without_leaf(t, rng.choice(leaves))
            pairs += [(t, d), (d, t)]
        for x, y in pairs:
            answer = morphism_exists_by_programme(x, y)
            assert answer == exists_morphism(x, y), (x, y)
            answers.append(answer)
    assert len(answers) >= 1000
    assert min(answers.count(True), answers.count(False)) >= 300


@given(trees(max_edges=7), trees(max_edges=7))
def test_agreement_random(t1, t2):
    assert exists_morphism(t1, t2) == exists_morphism_bruteforce(t1, t2)


@given(trees(max_edges=7), trees(max_edges=7))
def test_extraction_soundness(t1, t2):
    witness = extract_morphism(t1, t2)
    assert (witness is not None) == exists_morphism(t1, t2)
    if witness is not None:
        assert is_morphism(t1, t2, witness.mapping)
        assert witness.mapping[t1.start] == t2.start
        assert witness.mapping[t1.end] == t2.end


@given(trees())
def test_reflexivity(t):
    assert exists_morphism(t, t)
    witness = extract_morphism(t, t)
    assert is_morphism(t, t, witness.mapping)


def test_transitivity_random(ab):
    rng = Random(20240)
    found = 0
    for _ in range(400):
        x = random_tree(rng, rng.randrange(6), ab)
        y = random_tree(rng, rng.randrange(6), ab)
        z = random_tree(rng, rng.randrange(6), ab)
        if exists_morphism(x, y) and exists_morphism(y, z):
            found += 1
            assert exists_morphism(x, z)
    assert found > 0


@given(trees(max_edges=8), trees(max_edges=8))
def test_candidate_sets_shrink_only(t1, t2):
    sets = candidate_sets(t1, t2)
    full = (1 << t2.vertex_count) - 1
    initial = [full] * t1.vertex_count
    initial[0] &= 1 << t2.start
    initial[traversal(t1).position[t1.end]] &= 1 << t2.end
    for got, init in zip(sets.masks, initial):
        assert got & ~init == 0


def test_candidate_sets_api(ab):
    sets = candidate_sets(evaluate(parse("(a)+a", ab)), base_tree("a", ab))
    assert sets.contains(0, 0)
    assert sets.members(0) == [0]


def _reference_masks(t1, t2):
    # The backward pass from full masks, cut to every position's forward
    # reach D(p), both computed by the reference oracles.
    return [a & b for a, b in zip(propagate_unmemoised(t1, t2), forward_reach(t1, t2))]


def _check_passes(t1, t2):
    # The full pass gives the reference masks; the early-exit pass gives
    # them too whenever it keeps the start's mask, and rejects otherwise.
    expected = _reference_masks(t1, t2)
    full = _propagate(t1, t2)
    assert full == expected
    early = _propagate(t1, t2, _early_exit=True)
    if expected[0]:
        assert early == expected
    else:
        assert early[0] == 0
    return full


def test_propagate_matches_unmemoised_on_wide_targets(ab):
    rng = Random(20241)
    outcomes = set()
    for _ in range(12):
        x = random_tree(rng, rng.randrange(64, 800), ab)
        pairs = [
            (x, x),  # as pruning uses it
            (random_relabelling(rng, x), x),
            (x, random_relabelling(rng, x)),
            (prune(x).tree, x),
            (x, random_tree(rng, rng.randrange(64, 800), ab)),
        ]
        for t1, t2 in pairs:
            masks = _check_passes(t1, t2)
            outcomes.add(masks[0] != 0)
    big = random_tree(rng, 3199, ab)
    assert big.vertex_count == 3200
    _check_passes(big, big)
    assert outcomes == {False, True}
    # Targets that never use the source's letter c: every image along c is 0.
    abc = Alphabet.from_string("abc")
    c_images = 0
    for _ in range(6):
        t1 = random_tree(rng, rng.randrange(20, 400), abc)
        t2 = _over(abc, random_tree(rng, rng.randrange(64, 400), ab))
        masks = _check_passes(t1, t2)
        walk = traversal(t1)
        c = abc.index("c")
        # Each position with a child along c; a signed label's letter index is label >> 1.
        for p in {walk.up[q] for q in range(1, len(walk.order)) if walk.label[q] >> 1 == c}:
            assert masks[p] == 0
            c_images += 1
    assert c_images > 0
    # Wide targets whose edges all carry one letter.
    for _ in range(6):
        t2 = _relabelled(random_tree(rng, rng.randrange(64, 400), ab), "a")
        for t1 in (t2, random_relabelling(rng, t2), random_tree(rng, rng.randrange(200), ab)):
            _check_passes(t1, t2)
    # 65 target vertices, one more than a 64-bit mask holds.
    narrowest = {False: 0, True: 0}
    for _ in range(40):
        t2 = random_tree(rng, 64, ab)
        assert t2.vertex_count == 65
        for t1 in (
            t2,
            random_relabelling(rng, t2),
            prune(t2).tree,
            random_tree(rng, rng.randrange(12), ab),
            random_tree(rng, rng.randrange(200), ab),
            unpruned_product(unpruned_plus(random_tree(rng, rng.randrange(4), ab)), t2),
        ):
            masks = _check_passes(t1, t2)
            narrowest[masks[0] != 0] += 1
        t1, t2 = random_tree(rng, rng.randrange(100), abc), _over(abc, t2)
        _check_passes(t1, t2)
    assert min(narrowest.values()) >= 40


def test_propagate_matches_unmemoised_on_narrow_targets(ab):
    # Targets of 1-65 vertices, the sizes of small queries: every size, and
    # 64 and 65 (the last that a 64-bit mask holds and the first it does not)
    # eight more times.
    rng = Random(20247)
    abc = Alphabet.from_string("abc")
    outcomes = {False: 0, True: 0}
    for edges in list(range(65)) + [63, 64] * 8:
        t2 = random_tree(rng, edges, ab)
        assert t2.vertex_count == edges + 1
        sources = [
            t2,
            random_relabelling(rng, t2),
            prune(t2).tree,
            random_tree(rng, rng.randrange(12), ab),
            random_tree(rng, rng.randrange(100), ab),
            unpruned_product(unpruned_plus(random_tree(rng, rng.randrange(4), ab)), t2),
        ]
        pairs = [(t1, t2) for t1 in sources]
        pairs.append((random_tree(rng, rng.randrange(30), abc), _over(abc, t2)))
        for t1, target in pairs:
            full = _check_passes(t1, target)
            outcomes[full[0] != 0] += 1
    assert min(outcomes.values()) >= 100


def _over(alphabet, tree):
    return SigmaTree(alphabet, tree.vertex_count, tree.start, tree.end, tree.edges)


def _relabelled(tree, letter):
    edges = tuple(Edge(letter, s, t) for _, s, t in tree.edges)
    return SigmaTree(tree.alphabet, tree.vertex_count, tree.start, tree.end, edges)


def test_preimages_match_edge_groups(ab):
    rng = Random(20243)
    for edges in [0, 1, 2, 64, 65, 300] + [rng.randrange(301) for _ in range(24)]:
        tree = random_tree(rng, edges, ab)
        groups = edge_pairs(tree)
        pre = tree._preimages
        assert len(pre) == 2 * len(ab.letters)  # one entry per signed label
        for s, back in enumerate(pre):
            assert len(back) == tree.vertex_count
            pairs = {
                (x, y) for y, mask in enumerate(back) for x in range(tree.vertex_count)
                if (mask >> x) & 1
            }
            assert pairs == set(groups[s])


def test_forward_reach_bounds_masks(ab):
    # D(p) holds p itself when a tree maps to itself, and every final mask
    # lies inside D(p); a path word with a letter the target lacks reaches
    # nothing, so its mask is 0.
    rng = Random(20246)
    abc = Alphabet.from_string("abc")
    cases = [random_tree(rng, n, ab) for n in (0, 1, 2, 64, 65, 300)]
    cases += [random_tree(rng, rng.randrange(301), abc) for _ in range(12)]
    # Over abc with no c-edge: every image along c is 0.
    cases += [_over(abc, random_tree(rng, rng.randrange(301), ab)) for _ in range(12)]
    c_words = 0
    for tree in cases:
        order = traversal(tree).order
        reach = forward_reach(tree, tree)
        masks = _propagate(tree, tree)
        for p, v in enumerate(order):
            assert (reach[p] >> v) & 1 and (masks[p] >> v) & 1
            assert masks[p] & ~reach[p] == 0
        source = random_tree(rng, rng.randrange(100), tree.alphabet)
        reach = forward_reach(source, tree)
        masks = _propagate(source, tree)
        assert all(m & ~d == 0 for m, d in zip(masks, reach))
        if not any(label == "c" for label, _, _ in tree.edges):
            walk = traversal(source)
            letters = source.alphabet.letters
            for p in range(len(walk.order)):
                word = []
                q = p
                while q:
                    word.append(letters[walk.label[q] >> 1])
                    q = walk.up[q]
                if "c" in word:
                    assert reach[p] == masks[p] == 0
                    c_words += 1
    assert c_words > 0


def _shapes(k):
    # Trees whose forward reach is wide: stars of like-labelled leaves out
    # of and into the start, nested loops, a chain, and a chain with an
    # in-leaf at every vertex.
    return [
        "(a)+" * k,
        "(a)*" * k,
        "(a" * k + ")+" * k,
        "a" * k,
        "(a)*a" * k,
    ]


def test_wide_reach_shapes(ab):
    # One-letter shapes whose candidate sets have many bits, so images go
    # through the memo.  Masks match the reference for every pair of shapes
    # of one size, the word problem and pruning agree with the oracles.
    memo_images = 0
    for k in (1, 2, 3, 40, 400):
        texts = _shapes(k)
        trees = [evaluate(parse(text, ab)) for text in texts]
        for text in texts:
            assert equal(parse(text, ab), parse(text, ab))
        pairs = [(x, y) for x in trees for y in trees] if k <= 40 else list(zip(trees, trees))
        for t1, t2 in pairs:
            masks = _check_passes(t1, t2)
            memo_images += sum(m & (m - 1) != 0 for m in masks)
        if k <= 3:
            for tree in trees:
                assert canonical_word(prune(tree).tree) == canonical_word(
                    minimal_retract_bruteforce(tree)
                )
    assert equal(parse("(a)+" * 400, ab), parse("(a)+", ab))
    assert equal(parse("(a)*" * 400, ab), parse("(a)*", ab))
    assert not equal(parse("(a)+" * 400, ab), parse("(a)*" * 400, ab))
    assert memo_images > 1000


def test_all_morphisms_matches_recursive_enumeration(ab):
    # The explicit-stack backtracker yields the same vertex maps in the same
    # order as the recursive one, on every tree of at most 4 edges mapped to
    # itself and on every pair with one tree from a stride of the corpus.
    corpus = enumerate_trees(4, ab)
    pairs = [(t, t) for t in corpus]
    for x in corpus[::375]:
        pairs += [(x, y) for y in corpus] + [(y, x) for y in corpus]
    found = 0
    for t1, t2 in pairs:
        maps = list(_all_morphisms(t1, t2))
        assert maps == list(all_morphisms_recursive(t1, t2))
        found += len(maps) > 1
    assert found > 1000


def test_wide_targets_match_bruteforce(ab):
    # Targets of 66-203 vertices, wider than a 64-bit mask.  Targets are a
    # looped large tree followed by a short tail, and most sources a
    # looped small tree followed by the same tail, so both answers occur.
    rng = Random(20242)
    outcomes = {False: 0, True: 0}
    for _ in range(300):
        tail = random_tree(rng, rng.randrange(3), ab)
        t2 = unpruned_product(unpruned_plus(random_tree(rng, rng.randrange(65, 201), ab)), tail)
        if rng.random() < 0.7:
            t1 = unpruned_product(unpruned_plus(random_tree(rng, rng.randrange(6), ab)), tail)
        else:
            t1 = random_tree(rng, rng.randrange(8), ab)
        answer = exists_morphism(t1, t2)
        assert answer == exists_morphism_bruteforce(t1, t2)
        witness = extract_morphism(t1, t2)
        assert (witness is not None) == answer
        if witness is not None:
            assert is_morphism(t1, t2, witness.mapping)
        outcomes[answer] += 1
    assert min(outcomes.values()) >= 50


def test_extract_matches_scan_witness(ab):
    # The witness picked from preimage masks is the least candidate that the
    # reference scan of edge pairs picks, None included: on targets of every
    # size from 1 to 65 vertices (64 and 65 repeated) and on wide targets of
    # up to 400 edges, from self, relabelled, pruned and unrelated sources.
    rng = Random(20249)
    abc = Alphabet.from_string("abc")
    outcomes = {False: 0, True: 0}
    sizes = list(range(65)) + [63, 64] * 4 + [rng.randrange(65, 401) for _ in range(10)]
    for edges in sizes:
        t2 = random_tree(rng, edges, ab)
        sources = [
            t2,
            random_relabelling(rng, t2),
            prune(t2).tree,
            random_tree(rng, rng.randrange(12), ab),
            random_tree(rng, rng.randrange(100), ab),
            unpruned_product(unpruned_plus(random_tree(rng, rng.randrange(4), ab)), t2),
        ]
        pairs = [(t1, t2) for t1 in sources]
        pairs.append((random_tree(rng, rng.randrange(30), abc), _over(abc, t2)))
        for t1, target in pairs:
            witness = extract_morphism(t1, target)
            assert witness == extract_morphism_by_scan(t1, target)
            outcomes[witness is not None] += 1
    assert min(outcomes.values()) >= 100


def test_early_exit_masks_match_full_pass(ab):
    # Whenever the start keeps a candidate the early-exit pass is the full
    # pass; otherwise the full pass rejects as well.
    rng = Random(20244)
    outcomes = {False: 0, True: 0}
    for _ in range(40):
        x = random_tree(rng, rng.randrange(0, 400), ab)
        pairs = [
            (x, x),
            (random_relabelling(rng, x), x),
            (prune(x).tree, x),
            (x, prune(x).tree),
            (x, random_tree(rng, rng.randrange(0, 400), ab)),
            (random_tree(rng, rng.randrange(0, 12), ab), x),
        ]
        for t1, t2 in pairs:
            full = _propagate(t1, t2)
            early = _propagate(t1, t2, _early_exit=True)
            if early[0]:
                assert early == full
            else:
                assert full[0] == 0
            outcomes[early[0] != 0] += 1
    assert min(outcomes.values()) >= 40


def test_early_exit_answers_match_bruteforce(ab):
    rng = Random(20245)
    outcomes = {False: 0, True: 0}
    for _ in range(1500):
        t1 = random_tree(rng, rng.randrange(7), ab)
        t2 = random_tree(rng, rng.randrange(7), ab)
        if rng.random() < 0.5:
            t1 = prune(unpruned_product(t2, t1)).tree
        answer = exists_morphism(t1, t2)
        assert answer == exists_morphism_bruteforce(t1, t2)
        witness = extract_morphism(t1, t2)
        assert (witness is not None) == answer
        if witness is not None:
            assert is_morphism(t1, t2, witness.mapping)
        outcomes[answer] += 1
    assert min(outcomes.values()) >= 100


def test_extract_raises_on_unsupported_candidate(ab, monkeypatch):
    # Masks that no propagation pass yields: the start has an image, its
    # child none.
    monkeypatch.setattr(homomorphism, "_propagate", lambda t1, t2, **_: [1, 0])
    with pytest.raises(RuntimeError):
        extract_morphism(base_tree("a", ab), base_tree("a", ab))


def _fresh(tree):
    # A copy with nothing cached: the first morphism test from it walks its
    # traversal, in full, and caches the walk.
    return SigmaTree(tree.alphabet, tree.vertex_count, tree.start, tree.end, tree.edges)


def _reach(t1, t2):
    # D(p) per traversal position, by a forward pass without a memo: a
    # mask's image along signed label s is the union of the preimage masks
    # of its bits.
    walk = _compute_traversal(t1)
    pre = t2._preimages
    reach = [1 << t2.start]
    for p in range(1, t1.vertex_count):
        mask, back = reach[walk.up[p]], pre[walk.label[p] ^ 1]
        reach.append(reduce(or_, (back[v] for v in range(mask.bit_length()) if mask >> v & 1), 0))
    return reach


def _check_walk(t1, t2, oracles=True):
    # From a fresh and from a cached copy of t1, the early-exit masks are
    # the same: all 0 when some forward set D(p) is empty, else the full
    # pass's.  The answer, the witness and the candidate sets agree with
    # the reference, and every morphism test leaves the source's walk
    # cached, equal to the walk of a fresh copy.  The reference is the
    # oracles (with the brute force and the scan witness), or else the full
    # pass and a forward pass without a memo.  Returns whether the forward
    # pass stopped.
    n = t1.vertex_count
    if oracles:
        expected = _reference_masks(_fresh(t1), t2)
        stopped = 0 in forward_reach(_fresh(t1), t2)
    else:
        expected = _propagate(_fresh(t1), t2)
        stopped = 0 in _reach(_fresh(t1), t2)
    walk = _compute_traversal(_fresh(t1))
    cached = _fresh(t1)
    traversal(cached)
    early = _propagate(_fresh(t1), t2, _early_exit=True)
    assert _propagate(cached, t2, _early_exit=True) == early
    assert early == ([0] * n if stopped else expected)
    sources = [_fresh(t1) for _ in range(3)] + [cached]
    answer = exists_morphism(sources[0], t2)
    assert answer == (expected[0] != 0)
    witness = extract_morphism(sources[1], t2)
    assert witness == extract_morphism(cached, t2)
    assert candidate_sets(sources[2], t2).masks == expected
    for source in sources:
        assert vars(source)["_traversal"] == walk
    if oracles:
        assert answer == exists_morphism_bruteforce(_fresh(t1), t2)
        assert witness == extract_morphism_by_scan(_fresh(t1), t2)
    return stopped


def test_each_tree_is_walked_once_through_the_module_name(ab, monkeypatch):
    # The benchmark's tracer wraps tree._compute_traversal, so every walk
    # must go through that module-level name, and a tree is walked at most
    # once: the source of each direction that runs, never a target.
    walks = []
    compute = adequate.tree._compute_traversal
    monkeypatch.setattr(adequate.tree, "_compute_traversal", lambda t: walks.append(t) or compute(t))
    assert equal(parse("(a)+a", ab), parse("a", ab))
    assert len(walks) == 2
    walks.clear()
    assert not equal(parse("ab", ab), parse("ba", ab))
    assert len(walks) == 1
    x, y = evaluate(parse("(b)+b", ab)), evaluate(parse("b", ab))
    assert exists_morphism(x, y) and exists_morphism(y, x)
    walks.clear()
    assert exists_morphism(x, y) and exists_morphism(y, x)
    assert walks == []


def test_walk_from_fresh_sources_on_small_pairs(ab):
    # Every ordered pair of trees with at most two edges, and every tree
    # with at most four edges into itself, a relabelling of itself and
    # seeded trees of up to four edges.
    rng = Random(20247)
    small = enumerate_trees(2, ab)
    pairs = [(t1, t2) for t1 in small for t2 in small]
    for x in enumerate_trees(4, ab):
        pairs += [(x, x), (random_relabelling(rng, x), x), (x, random_tree(rng, rng.randrange(5), ab))]
    stopped = sum(_check_walk(t1, t2) for t1, t2 in pairs)
    assert 1000 < stopped < len(pairs) - 1000


def test_walk_from_fresh_sources_on_the_sweep_corpus(sweep_corpus):
    # Each tree into itself, where the forward pass completes, and into the
    # next tree over its alphabet, where it mostly stops.  The oracles judge
    # the trees of up to 40 vertices.
    stopped = 0
    for i, x in enumerate(sweep_corpus):
        y = next(t for t in sweep_corpus[i + 1 :] + sweep_corpus if t.alphabet == x.alphabet)
        assert not _check_walk(x, x, oracles=x.vertex_count <= 40)
        stopped += _check_walk(x, y, oracles=max(x.vertex_count, y.vertex_count) <= 40)
    assert stopped > len(sweep_corpus) // 2


def test_equal_with_walks_on_evaluated_pairs(ab):
    # Pairs as the eq-large benchmark builds them, smaller: a random tree's
    # word against the normal form of a relabelling of it (equal), and the
    # same word with one letter changed (mostly unequal).  Every tree is
    # evaluated, so no traversal is cached before the morphism tests.
    rng = Random(20248)
    answers = {False: 0, True: 0}
    for _ in range(25):
        x = random_tree(rng, 200, ab)
        f = canonical_word(x)
        g = render(normal_form(parse(canonical_word(random_relabelling(rng, x)), ab)))
        i = rng.choice([k for k, ch in enumerate(f) if ch in "ab"])
        m = f[:i] + "ba"[f[i] == "b"] + f[i + 1 :]
        for left, right in ((f, g), (m, g)):
            answer = equal(parse(left, ab), parse(right, ab))
            u, v = evaluate(parse(left, ab)), evaluate(parse(right, ab))
            _check_walk(u, v, oracles=False)
            _check_walk(v, u, oracles=False)
            assert answer == (_reference_masks(u, v)[0] != 0 and _reference_masks(v, u)[0] != 0)
            answers[answer] += 1
    assert min(answers.values()) >= 10
