"""Minimal retracts of trees and the pruned algebraic operations.

Pruning removes every branch that can be folded onto a sibling by an
idempotent self-morphism fixing the basepoints; the result is the unique
(up to isomorphism) retract admitting no further non-identity retraction.
The main routine reuses the candidate-set propagation of the morphism test
with source and target equal, then sweeps the tree once, deleting foldable
branches; total time is quadratic in the vertex count.
"""

from __future__ import annotations

from ._record import Frozen
from .homomorphism import _propagate
from .tree import SigmaTree, unpruned_plus, unpruned_product, unpruned_star


class PrunedWitness(Frozen):
    """Result of pruning: which input vertices survive and the compacted tree.

    ``embedding[new_id]`` is the original id of the kept vertex ``new_id``;
    kept vertices are compacted in increasing original-id order, so pruning
    is a deterministic function of the representation.
    """

    __match_args__ = ("kept", "tree", "embedding")
    kept: frozenset[int]
    tree: SigmaTree
    embedding: tuple[int, ...]

    def __init__(self, kept, tree, embedding):
        self.__dict__.update(kept=kept, tree=tree, embedding=embedding)


def pruned_vertex_set(tree: SigmaTree) -> frozenset[int]:
    """Vertices of a pruned subtree of ``tree`` containing both basepoints.

    After the propagation pass (source = target = ``tree``), vertices are
    visited in traversal order; at each vertex ``w`` and signed label, the
    like-labelled neighbours still present form the list K, and a neighbour
    ``u`` later than ``w`` is deleted together with its whole subtree unless
    ``u`` is the only member of K among its own candidate images.  Later
    siblings are examined first so that the lowest-numbered duplicate branch
    is the one kept.
    """
    n = tree.vertex_count
    if n == 1:
        return frozenset((0,))
    tr = tree._traversal
    masks = _propagate(tree, tree)
    adjacency = tree._adjacency
    position, order, size = tr.position, tr.order, tr.size
    alive = bytearray([1]) * n
    for p in range(n):
        w = order[p]
        if not alive[w]:
            continue
        entries = adjacency[w]
        count = len(entries)
        i = 0
        while i < count:
            s = entries[i] // n
            members = []
            j = i
            while j < count and entries[j] // n == s:
                u = entries[j] % n
                if alive[u]:
                    members.append(u)
                j += 1
            i = j
            if not members:
                continue
            kmask = 0
            for u in members:
                kmask |= 1 << u
            later = [u for u in members if position[u] > p]
            later.sort(key=position.__getitem__, reverse=True)
            for u in later:
                if kmask & masks[position[u]] != 1 << u:
                    kmask &= ~(1 << u)
                    lo = position[u]
                    for q in range(lo, lo + size[lo]):
                        alive[order[q]] = 0
    return frozenset(v for v in range(n) if alive[v])


def _induced_subtree(tree: SigmaTree, kept_sorted: tuple[int, ...]) -> SigmaTree:
    remap = {old: new for new, old in enumerate(kept_sorted)}
    edges = tuple(
        (label, remap[s], remap[t])
        for label, s, t in tree.edges
        if s in remap and t in remap
    )
    return SigmaTree(tree.alphabet, len(kept_sorted), remap[tree.start], remap[tree.end], edges)


def prune(tree: SigmaTree) -> PrunedWitness:
    """The pruned tree of ``tree`` together with the surviving vertex set."""
    kept = pruned_vertex_set(tree)
    embedding = tuple(sorted(kept))
    return PrunedWitness(kept, _induced_subtree(tree, embedding), embedding)


def pruned_product(x: SigmaTree, y: SigmaTree) -> SigmaTree:
    return prune(unpruned_product(x, y)).tree


def pruned_plus(x: SigmaTree) -> SigmaTree:
    return prune(unpruned_plus(x)).tree


def pruned_star(x: SigmaTree) -> SigmaTree:
    return prune(unpruned_star(x)).tree


def is_pruned(tree: SigmaTree) -> bool:
    """True iff no vertex can be pruned away."""
    return len(pruned_vertex_set(tree)) == tree.vertex_count
