"""Instance generation: random trees and formulas, exhaustive small trees."""

from __future__ import annotations

import heapq
from functools import lru_cache
from itertools import product
from random import Random

from .formula import DEFAULT_MODE, Alphabet, Formula, Letter, Unary
from .tree import SigmaTree, trivial_tree, validate


def _decode_prufer(seq: list[int], n: int) -> list[tuple[int, int]]:
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return edges


def random_tree(rng: Random, edge_count: int, alphabet: Alphabet) -> SigmaTree:
    """A pseudo-random valid tree with the given number of edges.

    The shape comes from a random sequence decoded into an unrooted tree,
    labels and orientations are drawn independently, then the path from
    vertex 0 to a randomly chosen end vertex is re-oriented forwards so the
    trunk exists.  Fully determined by the generator state.
    """
    if edge_count < 0:
        raise ValueError(f"edge_count must be non-negative, got {edge_count}")
    if edge_count == 0:
        return trivial_tree(alphabet)
    n = edge_count + 1
    undirected = _decode_prufer([rng.randrange(n) for _ in range(n - 2)], n)
    letters = alphabet.letters
    edges = []
    for u, v in undirected:
        if rng.random() < 0.5:
            u, v = v, u
        edges.append((rng.choice(letters), u, v))
    end = rng.randrange(n)
    # Re-orient the 0 -> end path: flip each of its edges that the walk
    # from 0 reads against the arrow.
    order, position, up, label, _ = SigmaTree(alphabet, n, 0, end, edges)._traversal
    backwards = set()
    p = position[end]
    while p:
        if label[p] & 1:
            backwards.add((order[p], order[up[p]]))
        p = up[p]
    edges = [(l, t, s) if (s, t) in backwards else (l, s, t) for l, s, t in edges]
    return validate(n, 0, end, edges, alphabet)


def random_relabelling(rng: Random, tree: SigmaTree) -> SigmaTree:
    """The same abstract tree under a random vertex permutation and edge shuffle."""
    n = tree.vertex_count
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(label, perm[s], perm[t]) for label, s, t in tree.edges]
    rng.shuffle(edges)
    return SigmaTree(tree.alphabet, n, perm[tree.start], perm[tree.end], tuple(edges))


def random_formula(
    rng: Random,
    alphabet: Alphabet,
    max_len: int = 40,
    mode=None,
) -> Formula:
    """A random formula of rendered length at most ``max_len``.

    Respects the mode's signature; in semigroup modes every group and the
    whole formula are kept non-empty.
    """
    if mode is None:
        mode = DEFAULT_MODE
    ops = sorted(mode.allowed_ops(), key=lambda o: o.value)
    semigroup = mode.semigroup
    letters = alphabet.letters
    budget = [max_len]
    unary_cost = 4 if semigroup else 3

    def grow(depth: int) -> list:
        factors = []
        while budget[0] >= 1 and rng.random() < 0.7:
            if depth < 5 and budget[0] >= unary_cost and rng.random() < 0.35:
                budget[0] -= unary_cost
                body = grow(depth + 1)
                if semigroup:
                    if body:
                        budget[0] += 1  # the reserved letter was not needed
                    else:
                        body = [Letter(rng.choice(letters))]
                factors.append(Unary(rng.choice(ops), Formula(tuple(body), alphabet)))
            else:
                budget[0] -= 1
                factors.append(Letter(rng.choice(letters)))
        return factors

    factors = grow(0)
    if semigroup and not factors:
        factors = [Letter(rng.choice(letters))]
    return Formula(tuple(factors), alphabet)


def enumerate_trees(max_edges: int, alphabet: Alphabet) -> list[SigmaTree]:
    """Every isomorphism class of tree with at most ``max_edges`` edges, once.

    Classes are generated structurally: a tree is a trunk plus, at each
    vertex, a multiset of hanging branches (label, orientation, hanging
    subtree); multisets are enumerated as sorted tuples, so no two outputs
    are isomorphic.  Exponential in ``max_edges``.
    """
    letters = alphabet.letters
    letter_count = len(letters)

    @lru_cache(maxsize=None)
    def hanging(edge_total: int) -> tuple:
        # All sorted branch tuples with the given total edge count.
        if edge_total == 0:
            return ((),)
        out = []

        def extend(remaining: int, floor, acc: list) -> None:
            if remaining == 0:
                out.append(tuple(acc))
                return
            for size in range(1, remaining + 1):
                for branch in branches(size):
                    if floor is not None and branch < floor:
                        continue
                    acc.append(branch)
                    extend(remaining - size, branch, acc)
                    acc.pop()

        extend(edge_total, None, [])
        return tuple(out)

    @lru_cache(maxsize=None)
    def branches(edge_total: int) -> tuple:
        return tuple(
            (li, rev, sub)
            for li in range(letter_count)
            for rev in (0, 1)
            for sub in hanging(edge_total - 1)
        )

    def build(trunk_label_indices: tuple[int, ...], hangs: tuple) -> SigmaTree:
        q = len(trunk_label_indices)
        edges = [(letters[li], i, i + 1) for i, li in enumerate(trunk_label_indices)]
        next_id = q + 1

        def attach(v: int, branch_tuple) -> None:
            nonlocal next_id
            for li, rev, sub in branch_tuple:
                w = next_id
                next_id += 1
                edges.append((letters[li], w, v) if rev else (letters[li], v, w))
                attach(w, sub)

        for i, branch_tuple in enumerate(hangs):
            attach(i, branch_tuple)
        return SigmaTree(alphabet, next_id, 0, q, tuple(edges))

    def distributions(edge_total: int, slots: int):
        if slots == 1:
            for r in hanging(edge_total):
                yield (r,)
            return
        for first in range(edge_total + 1):
            for r in hanging(first):
                for rest in distributions(edge_total - first, slots - 1):
                    yield (r,) + rest

    trees = []
    for total in range(max_edges + 1):
        for q in range(total + 1):
            for trunk_labels in product(range(letter_count), repeat=q):
                for hangs in distributions(total - q, q + 1):
                    trees.append(build(trunk_labels, hangs))
    return trees
