"""Birooted edge-labelled trees and the unpruned operations on them.

A tree here is a finite directed graph whose underlying undirected graph is
a tree, with edges labelled by generators and two distinguished vertices
(start and end) joined by a directed path, the trunk.  Vertex numbering is a
representation artifact: two trees differing only by renumbering describe
the same abstract value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from typing import Iterable, NamedTuple, Optional

from .errors import AlphabetMismatch, BadVertexId, NoTrunk, NotATree
from .formula import Alphabet, Formula


class Edge(NamedTuple):
    label: str
    source: int
    target: int


class SignedLabel(NamedTuple):
    """A label read with a direction: ``reverse`` means against the arrow.

    An edge "from u to v labelled (a, reverse)" is an actual a-labelled edge
    from v to u.  Bundling label and direction lets both algorithms match
    edges with a single key.
    """

    letter: str
    reverse: bool


class Trunk(NamedTuple):
    vertices: tuple[int, ...]
    labels: tuple[str, ...]


@dataclass(frozen=True)
class TraversalOrder:
    """Deterministic depth-first numbering of a tree, rooted at the start vertex.

    ``order[p]`` is the vertex at position ``p`` (``order[0]`` is the start),
    ``position`` is its inverse.  ``parent`` maps each non-root vertex to its
    DFS parent and the signed label read from the parent towards the child.
    ``children`` lists, per position, the child positions with those labels.
    ``span`` gives per vertex the half-open position range of its subtree,
    i.e. its descendants.
    """

    order: tuple[int, ...]
    position: tuple[int, ...]
    parent: tuple[Optional[tuple[int, SignedLabel]], ...]
    children: tuple[tuple[tuple[int, SignedLabel], ...], ...]
    span: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class SigmaTree:
    """A birooted labelled tree over a fixed alphabet.

    Invariants (enforced by :func:`validate`, preserved by all operations):
    exactly ``vertex_count - 1`` edges forming a connected undirected tree on
    vertices ``0..vertex_count-1``, and a directed path from start to end.
    Instances are immutable; derived structures are cached on first use.
    """

    alphabet: Alphabet
    vertex_count: int
    start: int
    end: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(Edge(*e) for e in self.edges))

    @cached_property
    def _adjacency(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        # Per vertex: (letter index, 0 out / 1 in, neighbour), sorted --
        # this fixes the traversal tie-break and groups equal signed labels.
        index = self.alphabet._index
        adj: list[list[tuple[int, int, int]]] = [[] for _ in range(self.vertex_count)]
        for label, s, t in self.edges:
            li = index.get(label)
            if li is None:
                li = self.alphabet.index(label)  # raises UnknownSymbol
            adj[s].append((li, 0, t))
            adj[t].append((li, 1, s))
        for entries in adj:
            entries.sort()
        return tuple(map(tuple, adj))

    @cached_property
    def _edge_groups(self) -> dict[SignedLabel, tuple[tuple[int, int], ...]]:
        # Signed label -> pairs (x, y) such that there is an edge so labelled
        # from x to y (reverse labels list actual edges backwards).
        groups: dict[SignedLabel, list[tuple[int, int]]] = {}
        for label, s, t in self.edges:
            groups.setdefault(SignedLabel(label, False), []).append((s, t))
            groups.setdefault(SignedLabel(label, True), []).append((t, s))
        return {k: tuple(v) for k, v in groups.items()}

    @cached_property
    def _preimages(self) -> dict[SignedLabel, tuple[int, ...]]:
        # Signed label -> per vertex y, the bitmask of every x with an edge
        # so labelled from x to y; letters without edges get all-zero lists.
        # Built per letter, so that no SignedLabel is made per edge.
        n = self.vertex_count
        letters = self.alphabet.letters
        heads = {letter: [0] * n for letter in letters}
        tails = {letter: [0] * n for letter in letters}
        for label, s, t in self.edges:
            heads[label][t] |= 1 << s
            tails[label][s] |= 1 << t
        pre: dict[SignedLabel, tuple[int, ...]] = {}
        for letter in letters:
            pre[SignedLabel(letter, False)] = tuple(heads[letter])
            pre[SignedLabel(letter, True)] = tuple(tails[letter])
        return pre

    @cached_property
    def _supports(self) -> dict[SignedLabel, int]:
        # Signed label -> the mask of every y whose preimage under it is not
        # 0, i.e. every y that an edge so labelled leads to.  The union of a
        # label's preimages is every x such an edge leaves, which is the
        # support of the reverse label.
        return {
            SignedLabel(letter, not reverse): reduce(or_, back, 0)
            for (letter, reverse), back in self._preimages.items()
        }

    @cached_property
    def _edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @cached_property
    def _traversal(self) -> TraversalOrder:
        return _compute_traversal(self)


def validate(
    vertex_count: int,
    start: int,
    end: int,
    edges: Iterable[tuple[str, int, int]],
    alphabet: Alphabet,
) -> SigmaTree:
    """Check all tree invariants and return the tree, or raise."""
    if vertex_count < 1:
        raise BadVertexId(f"vertex_count must be positive, got {vertex_count}")
    for v, role in ((start, "start"), (end, "end")):
        if not 0 <= v < vertex_count:
            raise BadVertexId(f"{role} vertex {v} out of range 0..{vertex_count - 1}")
    edge_tuple = tuple(Edge(label, s, t) for label, s, t in edges)
    for label, s, t in edge_tuple:
        if not (0 <= s < vertex_count and 0 <= t < vertex_count):
            raise BadVertexId(f"edge ({label!r},{s},{t}) references a vertex out of range")
        alphabet.index(label)
    if len(edge_tuple) != vertex_count - 1:
        raise NotATree(f"{len(edge_tuple)} edges on {vertex_count} vertices")
    tree = SigmaTree(alphabet, vertex_count, start, end, edge_tuple)
    traversal_order = tree._traversal
    if len(traversal_order.order) != vertex_count:
        raise NotATree("underlying graph is not connected")
    v = end
    while v != start:
        parent_vertex, slab = traversal_order.parent[v]
        if slab.reverse:
            raise NoTrunk(f"edge between {parent_vertex} and {v} points against the trunk")
        v = parent_vertex
    return tree


def trivial_tree(alphabet: Alphabet) -> SigmaTree:
    """The single-vertex tree; the identity element in monoid modes."""
    return SigmaTree(alphabet, 1, 0, 0, ())


def base_tree(letter: str, alphabet: Alphabet) -> SigmaTree:
    """Two vertices joined by one ``letter``-labelled edge, start to end."""
    alphabet.index(letter)
    return SigmaTree(alphabet, 2, 0, 1, (Edge(letter, 0, 1),))


def unpruned_product(x: SigmaTree, y: SigmaTree) -> SigmaTree:
    """Glue ``y`` onto ``x``, identifying y's start with x's end.

    Renumbering convention: x keeps its vertex ids; y's non-start vertices
    follow in their original relative order.  This makes results
    bit-reproducible (the abstract operation is only defined up to
    isomorphism).
    """
    if x.alphabet != y.alphabet:
        raise AlphabetMismatch("operands are over different alphabets")
    nx = x.vertex_count
    y_start = y.start
    x_end = x.end

    def renumber(v: int) -> int:
        if v == y_start:
            return x_end
        return nx + (v if v < y_start else v - 1)

    edges = x.edges + tuple(Edge(l, renumber(s), renumber(t)) for l, s, t in y.edges)
    return SigmaTree(x.alphabet, nx + y.vertex_count - 1, x.start, renumber(y.end), edges)


def unpruned_plus(x: SigmaTree) -> SigmaTree:
    """Same labelled graph and start; the end moves onto the start."""
    return SigmaTree(x.alphabet, x.vertex_count, x.start, x.start, x.edges)


def unpruned_star(x: SigmaTree) -> SigmaTree:
    """Same labelled graph and end; the start moves onto the end."""
    return SigmaTree(x.alphabet, x.vertex_count, x.end, x.end, x.edges)


def evaluate(formula: Formula) -> SigmaTree:
    """Evaluate a formula to its unpruned tree.

    One pass over the formula's text with a vertex cursor: a letter adds an
    edge from the cursor to a new vertex, which becomes the cursor.  A ``(``
    starts its group at a new vertex.  On closing, a ``+`` group's start and
    a ``*`` group's end are glued onto the outer cursor, which is the cursor
    again afterwards.  Vertex ids are the creation ranks of the vertices that
    were not glued, which is the numbering that folding
    :func:`unpruned_product`, :func:`unpruned_plus` and :func:`unpruned_star`
    over the syntax tree gives.  The result has exactly one edge per
    generator occurrence; runs in linear time in the formula length.  Letters
    are checked against the alphabet by dict membership; an unknown one
    raises ``UnknownSymbol``.
    """
    alphabet = formula.alphabet
    known = alphabet._index
    edges: list[tuple[str, int, int]] = []
    # glue[v] is the earlier vertex that v was glued onto, or -1.
    glue = [-1]
    cursor = 0
    groups: list[tuple[int, int]] = []  # per open group: outer cursor, start
    for ch in formula._text:
        if ch in known:
            v = len(glue)
            edges.append((ch, cursor, v))
            cursor = v
            glue.append(-1)
        elif ch == "(":
            v = len(glue)
            groups.append((cursor, v))
            cursor = v
            glue.append(-1)
        elif ch == "+":
            cursor, v = groups.pop()
            glue[v] = cursor
        elif ch == "*":
            outer = groups.pop()[0]
            glue[cursor] = outer
            cursor = outer
        elif ch != ")":
            alphabet.index(ch)  # raises UnknownSymbol
    # A glue target is always created before the vertex glued onto it, so
    # one forward pass settles chains of glues.
    ids = [0] * len(glue)
    count = 0
    for v, target in enumerate(glue):
        if target < 0:
            ids[v] = count
            count += 1
        else:
            ids[v] = ids[target]
    return SigmaTree(
        alphabet,
        count,
        0,
        ids[cursor],
        tuple((label, ids[s], ids[t]) for label, s, t in edges),
    )


def _compute_traversal(tree: SigmaTree) -> TraversalOrder:
    n = tree.vertex_count
    adj = tree._adjacency
    # One SignedLabel per (letter, direction), at index 2 * letter + reverse.
    slabs = [SignedLabel(letter, rev) for letter in tree.alphabet.letters for rev in (False, True)]
    start = tree.start
    position = [-1] * n
    order: list[int] = []
    parent: list[Optional[tuple[int, SignedLabel]]] = [None] * n
    children: list[list[tuple[int, SignedLabel]]] = [[] for _ in range(n)]
    up: list[int] = []  # per position, the parent's position
    # Explicit-stack preorder.  Neighbours are pushed in reverse so they pop
    # in adjacency order, and marked when pushed, so a cycle cannot loop.
    seen = bytearray(n)
    seen[start] = 1
    stack = [start]
    while stack:
        v = stack.pop()
        p = len(order)
        position[v] = p
        order.append(v)
        if p:
            u, slab = parent[v]
            pu = position[u]
            children[pu].append((p, slab))
            up.append(pu)
        else:
            up.append(-1)
        for li, rev, w in reversed(adj[v]):
            if not seen[w]:
                seen[w] = 1
                parent[w] = (v, slabs[li + li + rev])
                stack.append(w)
    # Subtree sizes, children before parents, give each span.
    size = [1] * len(order)
    span = [(0, 0)] * n
    for p in range(len(order) - 1, -1, -1):
        span[order[p]] = (p, p + size[p])
        if p:
            size[up[p]] += size[p]
    return TraversalOrder(
        tuple(order),
        tuple(position),
        tuple(parent),
        tuple(map(tuple, children)),
        tuple(span),
    )


def traversal(tree: SigmaTree) -> TraversalOrder:
    """The deterministic depth-first numbering used by all algorithms.

    Neighbours are visited by ascending (letter rank, direction with forward
    first, original neighbour id), so every run over the same representation
    produces the same numbering.  Computed once per tree by an explicit-stack
    preorder walk, with one ``SignedLabel`` per letter and direction, and
    spans from subtree sizes in one reverse pass.
    """
    return tree._traversal


def trunk(tree: SigmaTree) -> Trunk:
    """Vertices t0..tq and labels b1..bq of the directed start-to-end path."""
    tr = tree._traversal
    vertices = [tree.end]
    labels = []
    v = tree.end
    while v != tree.start:
        parent_vertex, slab = tr.parent[v]
        if slab.reverse:
            raise NoTrunk(f"edge between {parent_vertex} and {v} points against the trunk")
        labels.append(slab.letter)
        vertices.append(parent_vertex)
        v = parent_vertex
    vertices.reverse()
    labels.reverse()
    return Trunk(tuple(vertices), tuple(labels))


def descendants(tree: SigmaTree, u: int) -> frozenset[int]:
    """All vertices whose path to the start vertex passes through ``u``."""
    if not 0 <= u < tree.vertex_count:
        raise BadVertexId(f"vertex {u} out of range")
    tr = tree._traversal
    lo, hi = tr.span[u]
    return frozenset(tr.order[lo:hi])


def to_json(tree: SigmaTree) -> str:
    """Canonical JSON form; field order and edge order are fixed."""
    obj = {
        "alphabet": str(tree.alphabet),
        "n": tree.vertex_count,
        "start": tree.start,
        "end": tree.end,
        "edges": [{"l": l, "s": s, "t": t} for l, s, t in tree.edges],
    }
    return json.dumps(obj, separators=(",", ":"))


def from_json(text: str) -> SigmaTree:
    """Parse and validate the canonical JSON form.

    The alphabet must be a string, ``n``, ``start``, ``end``, ``s`` and ``t``
    integers (booleans are not), and labels one-character strings; anything
    else raises ``ValueError``.
    """
    obj = json.loads(text)
    try:
        letters, n, start, end = obj["alphabet"], obj["n"], obj["start"], obj["end"]
        edges = [(e["l"], e["s"], e["t"]) for e in obj["edges"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed tree JSON: {exc!r}") from exc
    if type(letters) is not str:
        raise ValueError("malformed tree JSON: the alphabet is not a string")
    if type(n) is not int or type(start) is not int or type(end) is not int:
        raise ValueError("malformed tree JSON: n, start and end must be integers")
    for label, s, t in edges:
        if type(s) is not int or type(t) is not int:
            raise ValueError("malformed tree JSON: edge ends must be integers")
        if type(label) is not str or len(label) != 1:
            raise ValueError("malformed tree JSON: an edge label is not one character")
    return validate(n, start, end, edges, Alphabet.from_string(letters))


def to_dot(tree: SigmaTree, name: str = "sigma_tree") -> str:
    """DOT export: start drawn as a diamond, end as a double circle."""
    lines = [f"digraph {name} {{"]
    for v in range(tree.vertex_count):
        if v == tree.start == tree.end:
            lines.append(f"  {v} [shape=diamond, peripheries=3];")
        elif v == tree.start:
            lines.append(f"  {v} [shape=diamond];")
        elif v == tree.end:
            lines.append(f"  {v} [shape=doublecircle];")
        else:
            lines.append(f"  {v};")
    for l, s, t in tree.edges:
        lines.append(f'  {s} -> {t} [label="{l}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
