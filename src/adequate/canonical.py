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

from .formula import Formula, _from_text
from .tree import SigmaTree, trunk


def canonical_word(tree: SigmaTree) -> str:
    """The canonical formula text; identical for isomorphic trees.

    At most four characters per edge; computed in quadratic time.
    """
    letters = tree.alphabet.letters
    omega_key = tree.alphabet.omega_key
    order, position, up, label, _ = tree._traversal
    trunk_info = trunk(tree)
    on_trunk = bytearray(len(order))
    for v in trunk_info.vertices:
        on_trunk[position[v]] = 1

    # Per position, the words of the branches hanging from it.  The
    # traversal is rooted at the start, on the trunk, so an off-trunk
    # vertex's children are its branches; a trunk vertex's children are
    # its branches and the next trunk vertex.  In reverse preorder every
    # branch word is complete before it is read.
    taus: list[list[str]] = [[] for _ in order]

    def assemble(p: int) -> str:
        words = taus[p]
        if len(words) > 1:
            words.sort(key=omega_key)
        return "".join(words)

    for p in range(len(order) - 1, 0, -1):
        if on_trunk[p]:
            continue
        s = label[p]
        if s & 1:
            taus[up[p]].append("(" + assemble(p) + letters[s >> 1] + ")*")
        else:
            taus[up[p]].append("(" + letters[s >> 1] + assemble(p) + ")+")

    parts = [assemble(0)]
    for letter, v in zip(trunk_info.labels, trunk_info.vertices[1:]):
        parts.append(letter)
        parts.append(assemble(position[v]))
    return "".join(parts)


def canonical_formula(tree: SigmaTree) -> Formula:
    """The canonical word as a formula, built from that text without
    re-parsing it: the word is whitespace-free and ``parse`` accepts it."""
    return _from_text(canonical_word(tree), tree.alphabet)
