"""Canonical formulas: a representation-independent word for every tree.

Each vertex contributes a word built from its branches hanging away from the
trunk: a branch reached along an outgoing edge labelled ``a`` with hanging
word w becomes ``(aw)+``, an incoming one becomes ``(wa)*``.  Branch words
at a vertex are sorted (generators first, then ``( ) + *``) before
concatenation, which erases the vertex numbering; the trunk labels are then
interleaved with the trunk vertices' words.  Applied to a pruned tree this
word is a normal form.
"""

from __future__ import annotations

from collections import deque

from .formula import Formula, _from_text
from .tree import SigmaTree, trunk


def canonical_word(tree: SigmaTree) -> str:
    """The canonical formula text; identical for isomorphic trees.

    At most four characters per edge; computed in quadratic time.
    """
    alphabet = tree.alphabet
    letters = alphabet.letters
    omega_key = alphabet.omega_key
    n = tree.vertex_count
    adjacency = tree._adjacency
    trunk_info = trunk(tree)

    visited = bytearray(n)
    for v in trunk_info.vertices:
        visited[v] = 1
    # Breadth-first away from the trunk; children recorded per vertex.
    children: list[list[int]] = [[] for _ in range(n)]
    queue = deque(trunk_info.vertices)
    offtrunk_order: list[int] = []
    while queue:
        v = queue.popleft()
        for e in adjacency[v]:
            w = e % n
            if not visited[w]:
                visited[w] = 1
                children[v].append(e)
                offtrunk_order.append(w)
                queue.append(w)

    hanging = [""] * n

    def assemble(v: int) -> str:
        taus = []
        for e in children[v]:
            s, w = divmod(e, n)
            if s & 1:
                taus.append("(" + hanging[w] + letters[s >> 1] + ")*")
            else:
                taus.append("(" + letters[s >> 1] + hanging[w] + ")+")
        if len(taus) > 1:
            taus.sort(key=omega_key)
        return "".join(taus)

    for v in reversed(offtrunk_order):
        hanging[v] = assemble(v)

    parts = [assemble(trunk_info.vertices[0])]
    for label, v in zip(trunk_info.labels, trunk_info.vertices[1:]):
        parts.append(label)
        parts.append(assemble(v))
    return "".join(parts)


def canonical_formula(tree: SigmaTree) -> Formula:
    """The canonical word as a formula, built from that text without
    re-parsing it: the word is whitespace-free and ``parse`` accepts it."""
    return _from_text(canonical_word(tree), tree.alphabet)
