"""Brute-force oracles that judge the decision procedures on small inputs.

Each oracle decides its question by exhaustive search, independently of the
candidate-set propagation and the pruning sweep it is compared against, so
it is exponential and meant for trees of at most a few edges.  The package
loads this module only on first use.
"""

from __future__ import annotations

from typing import Iterator

from .homomorphism import _check_alphabets
from .pruning import _induced_subtree
from .tree import SigmaTree


def exists_morphism_bruteforce(t1: SigmaTree, t2: SigmaTree) -> bool:
    """Oracle: plain backtracking over start/end-respecting edge-compatible maps.

    Intended for small inputs (say a dozen vertices); exponential in the
    worst case.
    """
    return next(_all_morphisms(t1, t2), None) is not None


def _all_morphisms(t1: SigmaTree, t2: SigmaTree) -> Iterator[tuple[int, ...]]:
    """Yield the vertex map of every morphism from t1 to t2 (small inputs).

    Backtracking over traversal positions with an explicit stack: ``tried[k]``
    is how far the scan for position k's image has gone through the target
    edges with the signed label of its edge in.  An image fits when that
    edge leads to it from the parent's image (and it is the target's end
    when position k holds the source's end).  Maps come in lexicographic
    order of those edge choices.
    """
    _check_alphabets(t1, t2)
    tr = t1._traversal
    n = t1.vertex_count
    order, up, label = tr.order, tr.up, tr.label
    # Per signed label, in edge order: pairs (x, y) such that there is an
    # edge so labelled from x to y.  Built here so that the oracle shares no
    # target index with the propagation pass it judges.
    alphabet = t2.alphabet
    groups: list[list[tuple[int, int]]] = [[] for _ in range(2 * len(alphabet))]
    for letter, s, t in t2.edges:
        k = 2 * alphabet.index(letter)  # raises UnknownSymbol
        groups[k].append((s, t))
        groups[k + 1].append((t, s))
    if t1.start == t1.end and t2.start != t2.end:
        return
    end_at, end2 = tr.position[t1.end], t2.end
    mapping = [-1] * n
    mapping[t1.start] = t2.start
    tried = [0] * n
    k = 1
    while k:
        if k == n:
            yield tuple(mapping)
            k -= 1
            continue
        pairs = groups[label[k]]
        src = mapping[order[up[k]]]
        i = tried[k]
        while i < len(pairs):
            x, y = pairs[i]
            i += 1
            if x == src and (k != end_at or y == end2):
                mapping[order[k]] = y
                tried[k] = i
                k += 1
                break
        else:
            tried[k] = 0
            k -= 1


def minimal_retract_bruteforce(tree: SigmaTree) -> SigmaTree:
    """Oracle: enumerate idempotent self-morphisms, keep a minimal image.

    Repeats until only the identity remains, so the result admits no proper
    retraction.  Exponential; intended for trees of at most a few edges.
    """
    current = tree
    while True:
        n = current.vertex_count
        best = None
        for mapping in _all_morphisms(current, current):
            idempotent = True
            for v in range(n):
                if mapping[mapping[v]] != mapping[v]:
                    idempotent = False
                    break
            if not idempotent:
                continue
            image = tuple(sorted(set(mapping)))
            key = (len(image), image, mapping)
            if best is None or key < best:
                best = key
        image = best[1]
        if len(image) == n:
            return current
        current = _induced_subtree(current, image)
