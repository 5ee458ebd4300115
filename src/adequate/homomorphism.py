"""Deciding whether one tree maps into another.

The decision procedure is constraint propagation: every vertex of the source
tree keeps a set of candidate images in the target, and a morphism exists
exactly when the start vertex keeps a candidate.  Candidate sets are
bitmasks, giving O(nm) time overall for trees on n and m vertices.  Signed
labels are the integers ``2 * letter index + reverse`` that index the
target's tables.

A morphism fixes the start and preserves labelled edges, so it maps a
source vertex p into D(p), the target vertices reached from the target's
start by reading p's path word.  A forward pass over the source in
depth-first order seeds each set with D(p), the image of its parent's set
along the edge in; a backward pass in reverse order then filters each
parent's set by the image of each child's set.  On ~800-edge pairs a D(p)
holds 1.9 vertices on average and 44% of them hold one, whose image is one
preimage mask of the target (per signed label and target vertex y, every x
with an edge so labelled from x to y).  Random trees have few distinct
fringe subtrees, so wider sets recur: each of their images is computed once
per call, as the union of the preimage masks of its bits, and then looked
up.
"""

from __future__ import annotations

from typing import Optional

from ._record import Frozen, Record
from .errors import AlphabetMismatch
from .tree import SigmaTree


class VertexMorphism(Frozen):
    """A morphism given by its vertex map; the edge map is induced.

    Between two fixed vertices of a tree there is at most one edge, so a
    vertex map that preserves labelled edges determines the edge map.
    """

    __match_args__ = ("mapping",)
    mapping: tuple[int, ...]

    def __init__(self, mapping):
        self.__dict__.update(mapping=mapping)

    def __call__(self, v: int) -> int:
        return self.mapping[v]


class CandidateSets(Record):
    """Candidate images per source vertex, in traversal position order.

    ``masks[p]`` has bit ``v`` set when target vertex ``v`` is still a
    possible image of the source vertex at position ``p`` after both passes:
    the forward pass starts it at D(p), the target vertices that p's path
    word reaches from the target's start, and the backward pass only clears
    bits.  Every morphism maps p to a member.
    """

    __match_args__ = ("masks", "target_count")
    __hash__ = None  # mutable, as a dataclass that is not frozen
    masks: list[int]
    target_count: int

    def __init__(self, masks, target_count):
        self.masks = masks
        self.target_count = target_count

    def contains(self, pos: int, v: int) -> bool:
        return (self.masks[pos] >> v) & 1 == 1

    def members(self, pos: int) -> list[int]:
        mask = self.masks[pos]
        return [v for v in range(self.target_count) if (mask >> v) & 1]


def _check_alphabets(t1: SigmaTree, t2: SigmaTree) -> None:
    if t1.alphabet != t2.alphabet:
        raise AlphabetMismatch("trees are over different alphabets")


def _propagate(t1: SigmaTree, t2: SigmaTree, _early_exit: bool = False) -> list[int]:
    """Run the two filtering passes; returns final masks by traversal position.

    Forward, p = 1 .. n-1: ``masks[p]`` is the image of ``masks[up[p]]``
    along ``label[p] ^ 1``, the vertices that an edge labelled ``label[p]``
    reaches from the parent's candidates; from ``masks[0]``, the target's
    start, this gives D(p).  The end's mask is then cut to the target's end.
    Backward, p = n-1 .. 1: ``masks[up[p]]`` is ANDed with the image of
    ``masks[p]`` along ``label[p]``; every descendant of p comes later in
    preorder, so ``masks[p]`` is final when p is reached.  Every neighbour
    along ``label[p]`` of a vertex of D(up[p]) lies in D(p), so each final
    mask is the backward pass's mask from full sets, ANDed with D(p).

    With ``_early_exit`` the forward pass stops at the first empty mask and
    the result is all 0, as every ancestor would end empty.  The backward
    pass needs no stop: an empty mask's image empties its parent's mask, and
    so on up to ``masks[0]``.  Unless the forward pass stopped, the masks
    are the full passes'.  Either way the source's traversal is walked in
    full and cached.

    A one-bit mask's image is the target's preimage mask of that bit.  A
    wider mask's image is looked up in a memo per signed label; a miss is
    the union of the preimage masks of its bits.  Without the memo, a star
    of k like-labelled leaves would walk the same k-bit mask at every leaf.
    """
    tr = t1._traversal
    up, label = tr.up, tr.label
    n = t1.vertex_count
    preimages = t2._preimages
    memos: list[dict[int, int]] = [{} for _ in preimages]

    def image(mask: int, s: int) -> int:
        if not mask & (mask - 1):
            return preimages[s][mask.bit_length() - 1] if mask else 0
        memo = memos[s]
        found = memo.get(mask)
        if found is None:
            back = preimages[s]
            found = 0
            rest = mask
            while rest:
                low = rest & -rest
                found |= back[low.bit_length() - 1]
                rest ^= low
            memo[mask] = found
        return found

    masks = [0] * n
    masks[0] = 1 << t2.start
    for p in range(1, n):
        mask = image(masks[up[p]], label[p] ^ 1)
        if not mask and _early_exit:
            return [0] * n
        masks[p] = mask
    masks[tr.position[t1.end]] &= 1 << t2.end
    for p in range(n - 1, 0, -1):
        masks[up[p]] &= image(masks[p], label[p])
    return masks


def candidate_sets(t1: SigmaTree, t2: SigmaTree) -> CandidateSets:
    """The candidate sets for maps from ``t1`` into ``t2`` after the forward
    and the backward pass: each lies in D(p) and has passed every child's
    filter, so ``masks[0]`` is not 0 exactly when a morphism exists."""
    _check_alphabets(t1, t2)
    return CandidateSets(_propagate(t1, t2), t2.vertex_count)


def exists_morphism(t1: SigmaTree, t2: SigmaTree) -> bool:
    """True iff there is a morphism from ``t1`` to ``t2``.

    Runs the two propagation passes and answers from the start vertex's
    candidate set.  The forward pass stops at the first empty set; in the
    backward pass an empty set empties the start's set by itself.
    """
    _check_alphabets(t1, t2)
    return _propagate(t1, t2, _early_exit=True)[0] != 0


def extract_morphism(t1: SigmaTree, t2: SigmaTree) -> Optional[VertexMorphism]:
    """A concrete witness morphism, or None if none exists.

    Images are assigned in traversal order, always choosing the least
    admissible target vertex, so the witness is deterministic.  The
    forward pass stops at the first empty set, as in
    :func:`exists_morphism`.
    """
    _check_alphabets(t1, t2)
    masks = _propagate(t1, t2, _early_exit=True)
    if masks[0] == 0:
        return None
    tr = t1._traversal
    order, up, label = tr.order, tr.up, tr.label
    preimages = t2._preimages
    mapping = [-1] * t1.vertex_count
    first = masks[0]
    mapping[t1.start] = (first & -first).bit_length() - 1
    for p in range(1, t1.vertex_count):
        # Candidates that an edge labelled label[p] reaches from the parent's
        # image: the reverse label's preimage of that image.
        fit = masks[p] & preimages[label[p] ^ 1][mapping[order[up[p]]]]
        # The propagation passes guarantee a supported candidate here.
        if not fit:
            raise RuntimeError(f"no supported candidate at traversal position {p}")
        mapping[order[p]] = (fit & -fit).bit_length() - 1
    return VertexMorphism(tuple(mapping))


def is_morphism(t1: SigmaTree, t2: SigmaTree, mapping: tuple[int, ...]) -> bool:
    """Check the morphism conditions for an explicit vertex map."""
    _check_alphabets(t1, t2)
    m = t2.vertex_count
    if len(mapping) != t1.vertex_count:
        return False
    if any(not 0 <= v < m for v in mapping):
        return False
    if mapping[t1.start] != t2.start or mapping[t1.end] != t2.end:
        return False
    edge_set = frozenset(t2.edges)
    return all((l, mapping[s], mapping[t]) in edge_set for l, s, t in t1.edges)
