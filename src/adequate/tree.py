"""Birooted edge-labelled trees and the unpruned operations on them.

A tree here is a finite directed graph whose underlying undirected graph is
a tree, with edges labelled by generators and two distinguished vertices
(start and end) joined by a directed path, the trunk.  Vertex numbering is a
representation artifact: two trees differing only by renumbering describe
the same abstract value.

Every algorithm reads one depth-first walk of a tree from its start, a
:class:`TraversalOrder` of flat lists by position that the tree computes
once and caches; :func:`traversal` returns an immutable copy of it.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from ._record import Frozen
from .errors import AlphabetMismatch, BadVertexId, NoTrunk, NotATree
from .formula import Alphabet, Formula


class Edge(NamedTuple):
    """Names the fields of an edge; trees store plain tuples, equal to it."""

    label: str
    source: int
    target: int


class Trunk(NamedTuple):
    vertices: tuple[int, ...]
    labels: tuple[str, ...]


class TraversalOrder(NamedTuple):
    """The deterministic depth-first walk of a tree, rooted at the start vertex.

    ``order[p]`` is the vertex at position ``p`` (``order[0]`` is the start)
    and ``position`` is its inverse.  ``up[p]`` is the parent's position and
    ``label[p]`` the signed label ``2 * letter index + reverse`` of the edge
    in, both -1 at the start.  The descendants of ``p`` are the positions
    ``p`` to ``p + size[p] - 1``.  The children of ``p`` are ``q = p + 1``,
    then ``q + size[q]``, and so on, by ascending signed label, then vertex
    id.  The tree's cache holds lists; :func:`traversal` returns tuples.
    """

    order: Sequence[int]
    position: Sequence[int]
    up: Sequence[int]
    label: Sequence[int]
    size: Sequence[int]


class SigmaTree(Frozen):
    """A birooted labelled tree over a fixed alphabet.

    Invariants (enforced by :func:`validate`, preserved by all operations):
    exactly ``vertex_count - 1`` edges forming a connected undirected tree on
    vertices ``0..vertex_count-1``, and a directed path from start to end.
    ``edges`` holds ``(label, source, target)`` triples, plain tuples in every
    tree the library builds.  Instances are immutable; derived structures are
    cached on first use, keyed by the signed label ``s = 2 * letter index +
    reverse`` (its reverse is s ^ 1).
    """

    __match_args__ = ("alphabet", "vertex_count", "start", "end", "edges")
    alphabet: Alphabet
    vertex_count: int
    start: int
    end: int
    edges: tuple[tuple[str, int, int], ...]

    def __init__(self, alphabet, vertex_count, start, end, edges):
        self.__dict__.update(alphabet=alphabet, vertex_count=vertex_count, start=start, end=end, edges=edges)

    @cached_property
    def _preimages(self) -> list[list[int]]:
        # Per signed label and vertex y: the bitmask of every x with an edge
        # so labelled from x to y; letters without edges get all-zero lists.
        n = self.vertex_count
        index = self.alphabet._index
        pre = [[0] * n for _ in range(2 * len(index))]
        for label, s, t in self.edges:
            li = index.get(label)
            if li is None:
                li = self.alphabet.index(label)  # raises UnknownSymbol
            k = 2 * li
            pre[k][t] |= 1 << s
            pre[k + 1][s] |= 1 << t
        return pre

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
    edge_tuple = tuple((label, s, t) for label, s, t in edges)
    for label, s, t in edge_tuple:
        if not (0 <= s < vertex_count and 0 <= t < vertex_count):
            raise BadVertexId(f"edge ({label!r},{s},{t}) references a vertex out of range")
        alphabet.index(label)
    if len(edge_tuple) != vertex_count - 1:
        raise NotATree(f"{len(edge_tuple)} edges on {vertex_count} vertices")
    tree = SigmaTree(alphabet, vertex_count, start, end, edge_tuple)
    if len(tree._traversal.order) != vertex_count:
        raise NotATree("underlying graph is not connected")
    trunk(tree)  # raises NoTrunk
    return tree


def trivial_tree(alphabet: Alphabet) -> SigmaTree:
    """The single-vertex tree; the identity element in monoid modes."""
    return SigmaTree(alphabet, 1, 0, 0, ())


def base_tree(letter: str, alphabet: Alphabet) -> SigmaTree:
    """Two vertices joined by one ``letter``-labelled edge, start to end."""
    alphabet.index(letter)
    return SigmaTree(alphabet, 2, 0, 1, ((letter, 0, 1),))


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

    edges = x.edges + tuple((l, renumber(s), renumber(t)) for l, s, t in y.edges)
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
    generator occurrence; runs in linear time in the formula length.
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
    """The walk that :func:`traversal` describes, as flat lists by position.

    Always a whole new walk; ``SigmaTree._traversal`` calls it once per tree,
    by this module-level name (which ``benchmark/spans.py`` wraps to time
    every walk), and caches the result.
    """
    n = tree.vertex_count
    index = tree.alphabet._index
    # Per vertex: s * n + w for each neighbour w reached along signed label
    # s; sorted, that is by (letter, forward first, w), the traversal
    # tie-break.  No other code reads this encoding.
    adj: list[list[int]] = [[] for _ in range(n)]
    for letter, s, t in tree.edges:
        li = index.get(letter)
        if li is None:
            li = tree.alphabet.index(letter)  # raises UnknownSymbol
        k = 2 * li * n
        adj[s].append(k + t)
        adj[t].append(k + n + s)
    for entries in adj:
        entries.sort()
    start = tree.start
    position = [-1] * n
    position[start] = -2
    order: list[int] = []
    up: list[int] = []
    label: list[int] = []
    # Explicit-stack preorder; an entry is a vertex, the position of the
    # vertex that pushed it and the signed label read from there.
    # Neighbours are pushed in descending order so they pop in ascending
    # order, and marked (position -2) when pushed, so a cycle cannot loop.
    # Children therefore take positions by ascending signed label.
    stack = [(start, -1, -1)]
    while stack:
        v, u, s = stack.pop()
        p = len(order)
        position[v] = p
        order.append(v)
        up.append(u)
        label.append(s)
        for e in reversed(adj[v]):
            w = e % n
            if position[w] == -1:
                position[w] = -2
                stack.append((w, p, e // n))
    # Subtree sizes, children before parents.
    size = [1] * len(order)
    for p in range(len(order) - 1, 0, -1):
        size[up[p]] += size[p]
    return TraversalOrder(order, position, up, label, size)


def traversal(tree: SigmaTree) -> TraversalOrder:
    """The deterministic depth-first walk that every algorithm reads.

    Neighbours are visited by ascending (letter rank, direction with forward
    first, original neighbour id), so every run over the same representation
    gives the same walk.  The tree computes and caches it once, by an
    explicit-stack preorder walk over a sorted adjacency list that is built
    for the walk and dropped.  This returns an immutable copy of the cache.
    """
    return TraversalOrder(*map(tuple, tree._traversal))


def trunk(tree: SigmaTree) -> Trunk:
    """Vertices t0..tq and labels b1..bq of the directed start-to-end path."""
    tr = tree._traversal
    order, up, label = tr.order, tr.up, tr.label
    letters = tree.alphabet.letters
    vertices = [tree.end]
    labels = []
    p = tr.position[tree.end]
    if p < 0:
        raise NotATree("the end vertex is not connected to the start")
    while p:
        if label[p] & 1:
            raise NoTrunk(f"edge between {order[up[p]]} and {order[p]} points against the trunk")
        labels.append(letters[label[p] >> 1])
        p = up[p]
        vertices.append(order[p])
    vertices.reverse()
    labels.reverse()
    return Trunk(tuple(vertices), tuple(labels))


def descendants(tree: SigmaTree, u: int) -> frozenset[int]:
    """All vertices whose path to the start vertex passes through ``u``."""
    if not 0 <= u < tree.vertex_count:
        raise BadVertexId(f"vertex {u} out of range")
    tr = tree._traversal
    lo = tr.position[u]
    return frozenset(tr.order[lo : lo + tr.size[lo]])


def to_json(tree: SigmaTree) -> str:
    """Canonical JSON form; field order and edge order are fixed."""
    import json

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
    integers (booleans are not), ``edges`` a list and labels one-character
    strings.  No object may repeat a key, the tree may hold no key but
    ``alphabet``, ``n``, ``start``, ``end`` and ``edges``, and an edge none
    but ``l``, ``s`` and ``t``.  Anything else raises ``ValueError``.
    """
    import json

    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError as exc:
        raise ValueError("malformed tree JSON: nested too deeply") from exc
    try:
        letters, n, start, end = obj["alphabet"], obj["n"], obj["start"], obj["end"]
        if type(obj["edges"]) is not list:
            raise ValueError("malformed tree JSON: edges is not a list")
        edges = [(e["l"], e["s"], e["t"]) for e in obj["edges"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed tree JSON: {exc!r}") from exc
    _only_keys(obj, ("alphabet", "n", "start", "end", "edges"))
    for e in obj["edges"]:
        _only_keys(e, ("l", "s", "t"))
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


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    # The JSON object hook: json.loads alone would keep a repeated key's last value.
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"malformed tree JSON: duplicate key {key!r}")
        obj[key] = value
    return obj


def _only_keys(obj: dict, known: tuple[str, ...]) -> None:
    # Every known key has been read, so an object with more keys has another.
    if len(obj) != len(known):
        key = next(key for key in obj if key not in known)
        raise ValueError(f"malformed tree JSON: unknown key {key!r}")


def to_dot(tree: SigmaTree, name: str = "sigma_tree") -> str:
    """DOT export: start drawn as a diamond, end as a double circle.

    Labels are quoted, with ``\\`` and ``"`` escaped."""
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
        l = l.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {s} -> {t} [label="{l}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
