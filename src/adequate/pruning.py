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
from .homomorphism import candidate_sets
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

    After the propagation pass (source = target = ``tree``), the traversal
    positions are visited in preorder, skipping deleted ones.  The children
    of a position ``p`` come grouped by signed label; for each group, K is
    the group plus ``p``'s parent when the edge up reads the same label.
    Each child ``c`` in the group, the latest first, is deleted together
    with its whole subtree unless ``c`` is the only member of K among its
    own candidate images; a deleted child leaves K.  Latest first makes the
    lowest-numbered duplicate branch the one kept.  A child is only ever
    deleted with its parent or at its parent's visit, so all of K is
    present when ``p`` is visited.
    """
    n = tree.vertex_count
    order, _, up, label, size = tree._traversal
    masks = candidate_sets(tree, tree)
    alive = bytearray([1]) * n
    for p in range(n):
        if not alive[p]:
            continue
        back = label[p] ^ 1  # read from p up to its parent; -2 at the root
        q = p + 1
        end = p + size[p]
        while q < end:
            s = label[q]
            kmask = 1 << order[up[p]] if s == back else 0
            group = []
            while q < end and label[q] == s:
                group.append(q)
                kmask |= 1 << order[q]
                q += size[q]
            for c in reversed(group):
                bit = 1 << order[c]
                if kmask & masks[c] != bit:
                    kmask ^= bit
                    alive[c : c + size[c]] = bytes(size[c])
    return frozenset(order[p] for p in range(n) if alive[p])


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
