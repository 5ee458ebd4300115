"""Deciding whether one tree maps into another.

The decision procedure is constraint propagation: every vertex of the source
tree keeps a set of candidate images in the target, the sets are filtered
once along each source edge in reverse depth-first order, and a morphism
exists exactly when the start vertex keeps a candidate.  Candidate sets are
bitmasks, giving O(nm) time overall for trees on n and m vertices.  The pass
is one loop over the source's traversal positions, and signed labels are
the integers ``2 * letter index + reverse`` that index the target's tables.

The image of a child's candidate set along a signed label depends only on
that label and that set.  Random trees have few distinct fringe subtrees, so
the same pair recurs often; each image is computed once per call and then
looked up.  Such an image is the union of the preimage masks (per signed
label and target vertex y, every x with an edge so labelled from x to y) of
the set bits of the child's set, so a miss costs one mask union per
candidate rather than a scan of every target edge with that label.  Only
vertices in the label's support (those with a non-zero preimage) can
contribute, so the memo is keyed by the child's set masked to the support:
a miss walks fewer bits, sets that differ only outside the support share
one entry, and the image of the whole support, the support of the reverse
label, is entered before the pass starts.  On ~800-edge pairs a support
holds 246-343 vertices, and the bits walked per miss fell from a mean of 48
to 13.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import AlphabetMismatch
from .tree import SigmaTree


@dataclass(frozen=True)
class VertexMorphism:
    """A morphism given by its vertex map; the edge map is induced.

    Between two fixed vertices of a tree there is at most one edge, so a
    vertex map that preserves labelled edges determines the edge map.
    """

    mapping: tuple[int, ...]

    def __call__(self, v: int) -> int:
        return self.mapping[v]


@dataclass
class CandidateSets:
    """Candidate images per source vertex, in traversal position order.

    ``masks[p]`` has bit ``v`` set when target vertex ``v`` is still a
    possible image of the source vertex at position ``p``.  Masks only ever
    shrink as the propagation runs.
    """

    masks: list[int]
    target_count: int

    def contains(self, pos: int, v: int) -> bool:
        return (self.masks[pos] >> v) & 1 == 1

    def members(self, pos: int) -> list[int]:
        mask = self.masks[pos]
        return [v for v in range(self.target_count) if (mask >> v) & 1]


def _check_alphabets(t1: SigmaTree, t2: SigmaTree) -> None:
    if t1.alphabet is not t2.alphabet and t1.alphabet != t2.alphabet:
        raise AlphabetMismatch("trees are over different alphabets")


def _propagate(t1: SigmaTree, t2: SigmaTree, _early_exit: bool = False) -> list[int]:
    """Run the filtering pass; returns final masks by traversal position.

    One loop over source positions p = n-1 .. 1 ANDs into ``masks[up[p]]``
    the image of ``masks[p]`` along ``label[p]``.  Every descendant of p
    comes later in preorder, so ``masks[p]`` is final when p is reached.
    With ``_early_exit`` the pass stops at the first empty mask reached and
    sets ``masks[0]`` to 0, as every ancestor would end empty; whenever
    ``masks[0]`` is not 0 the masks are those of the full pass.

    The pass keeps one memo per signed label, keyed by the child mask
    ANDed with the label's support, and computes a miss as the union of the
    target's preimage masks over the set bits of that key.  A preimage is 0
    outside the support, so the masking keeps every image as it was; the
    memo starts with the image of the whole support, the reverse label's
    support ``supports[s ^ 1]``.  On ``eq-large`` seed 701 (60 queries, both
    directions) this cut the bits walked by misses from 1,178,515 to 306,565
    and the misses from 24,578 to 23,020.
    """
    tr = t1._traversal
    up, label = tr.up, tr.label
    masks = [(1 << t2.vertex_count) - 1] * t1.vertex_count
    masks[0] &= 1 << t2.start
    masks[tr.position[t1.end]] &= 1 << t2.end
    preimages, supports = t2._preimages, t2._supports
    memos = [{support: supports[s ^ 1]} for s, support in enumerate(supports)]
    for p in range(t1.vertex_count - 1, 0, -1):
        child = masks[p]
        if not child and _early_exit:
            masks[0] = 0
            return masks
        s = label[p]
        key = child & supports[s]
        memo = memos[s]
        image = memo.get(key)
        if image is None:
            back = preimages[s]
            image = 0
            rest = key
            while rest:
                low = rest & -rest
                image |= back[low.bit_length() - 1]
                rest ^= low
            memo[key] = image
        masks[up[p]] &= image
    return masks


def candidate_sets(t1: SigmaTree, t2: SigmaTree) -> CandidateSets:
    """The fully filtered candidate sets for maps from ``t1`` into ``t2``."""
    _check_alphabets(t1, t2)
    return CandidateSets(_propagate(t1, t2), t2.vertex_count)


def exists_morphism(t1: SigmaTree, t2: SigmaTree) -> bool:
    """True iff there is a morphism from ``t1`` to ``t2``.

    Runs the propagation pass, stopping at the first empty candidate set,
    and answers from the start vertex's candidate set.
    """
    _check_alphabets(t1, t2)
    return _propagate(t1, t2, _early_exit=True)[0] != 0


def extract_morphism(t1: SigmaTree, t2: SigmaTree) -> Optional[VertexMorphism]:
    """A concrete witness morphism, or None if none exists.

    Images are assigned in traversal order, always choosing the least
    admissible target vertex, so the witness is deterministic.
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
        # The propagation pass guarantees a supported candidate here.
        if not fit:
            raise RuntimeError(f"no supported candidate at traversal position {p}")
        mapping[order[p]] = (fit & -fit).bit_length() - 1
    return VertexMorphism(tuple(mapping))


def is_morphism(t1: SigmaTree, t2: SigmaTree, mapping: tuple[int, ...]) -> bool:
    """Check the morphism conditions for an explicit vertex map."""
    m = t2.vertex_count
    if len(mapping) != t1.vertex_count:
        return False
    if any(not 0 <= v < m for v in mapping):
        return False
    if mapping[t1.start] != t2.start or mapping[t1.end] != t2.end:
        return False
    edge_set = frozenset(t2.edges)
    return all((l, mapping[s], mapping[t]) in edge_set for l, s, t in t1.edges)


def exists_morphism_bruteforce(t1: SigmaTree, t2: SigmaTree) -> bool:
    """Oracle: plain backtracking over start/end-respecting edge-compatible maps.

    Intended for small inputs (say a dozen vertices); exponential in the
    worst case.
    """
    return next(_all_morphisms(t1, t2), None) is not None


def _all_morphisms(t1: SigmaTree, t2: SigmaTree) -> Iterator[tuple[int, ...]]:
    """Yield the vertex map of every morphism from t1 to t2 (small inputs)."""
    _check_alphabets(t1, t2)
    tr = t1._traversal
    n = t1.vertex_count
    order, up, label = tr.order, tr.up, tr.label
    # Per signed label, in edge order: pairs (x, y) such that there is an
    # edge so labelled from x to y.  Built here so that the oracle shares no
    # target index with the propagation pass it judges.
    index = t2.alphabet._index
    groups: list[list[tuple[int, int]]] = [[] for _ in range(2 * len(index))]
    for letter, s, t in t2.edges:
        k = 2 * index[letter]
        groups[k].append((s, t))
        groups[k + 1].append((t, s))
    end1, end2 = t1.end, t2.end
    mapping = [-1] * n

    def place(k: int) -> Iterator[tuple[int, ...]]:
        if k == n:
            yield tuple(mapping)
            return
        v = order[k]
        src = mapping[order[up[k]]]
        for x, y in groups[label[k]]:
            if x != src:
                continue
            if v == end1 and y != end2:
                continue
            mapping[v] = y
            yield from place(k + 1)

    if t1.start == t1.end and t2.start != t2.end:
        return
    mapping[t1.start] = t2.start
    yield from place(1)
