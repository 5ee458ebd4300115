"""Independent oracles used by the tests.

These deliberately avoid the library's own traversal / canonical-word
machinery: structural keys are built straight from the edge list, and
descendant sets come from explicit path enumeration.  The parser, the
evaluators, the admissibility walk, the traversal, the propagation pass,
the recursive morphism enumeration, the adjacency-list pruning sweep and
the breadth-first canonical word that the library replaced with faster
code are kept here as differential references; the faster code must give
identical results.  So are the dataclass definitions of the value classes,
which the library replaced with plain classes that import no
``dataclasses``.  The propagation pass now also runs a forward pass, so
its masks are the reference pass's ANDed with ``forward_reach``.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, fields
from typing import Iterator, Optional

from adequate import (
    Alphabet,
    BareGroup,
    CandidateSets,
    DanglingUnary,
    EmptyNotAllowed,
    Formula,
    Letter,
    Mode,
    OpNotInSignature,
    PrunedWitness,
    Sidedness,
    SigmaTree,
    SignedLabel,
    TraversalOrder,
    Unary,
    UnaryOp,
    UnbalancedParenthesis,
    UnknownSymbol,
    VertexMorphism,
    base_tree,
    candidate_sets,
    evaluate,
    parse,
    traversal,
    trivial_tree,
    trunk,
    unpruned_plus,
    unpruned_product,
    unpruned_star,
)
from adequate.formula import RESERVED, _render_factors
from adequate.oracles import exists_morphism_bruteforce
from adequate.solver import _identity_alphabet


def structural_key(tree: SigmaTree):
    """A complete isomorphism invariant: trunk labels plus sorted branch keys.

    A hanging branch is (label, orientation, key of hanging subtree); the
    multiset of branches at each vertex is represented by its sorted tuple.
    Two trees get equal keys exactly when they are isomorphic.
    """
    adj = defaultdict(list)
    for label, s, t in tree.edges:
        adj[s].append((label, 0, t))
        adj[t].append((label, 1, s))

    tk = trunk(tree)
    on_trunk = set(tk.vertices)

    def subtree_key(v: int, parent: int):
        branches = []
        for label, rev, w in adj[v]:
            if w == parent:
                continue
            branches.append((label, rev, subtree_key(w, v)))
        branches.sort()
        return tuple(branches)

    vertex_keys = []
    for v in tk.vertices:
        branches = []
        for label, rev, w in adj[v]:
            if w in on_trunk:
                continue
            branches.append((label, rev, subtree_key(w, v)))
        branches.sort()
        vertex_keys.append(tuple(branches))
    return (tk.labels, tuple(vertex_keys))


def descendants_by_paths(tree: SigmaTree, u: int) -> frozenset:
    """All v whose undirected path to the start vertex passes through u."""
    adj = defaultdict(list)
    for _, s, t in tree.edges:
        adj[s].append(t)
        adj[t].append(s)
    parent = {tree.start: None}
    stack = [tree.start]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                stack.append(w)
    out = set()
    for v in range(tree.vertex_count):
        w = v
        while w is not None:
            if w == u:
                out.add(v)
                break
            w = parent[w]
    return frozenset(out)


def identity_alphabet_by_loop(*texts: str) -> Alphabet:
    """Reference for ``solver._identity_alphabet``: one pass per character,
    skipping whitespace (``str.isspace``) and the reserved characters."""
    letters: list[str] = []
    seen: set[str] = set()
    for text in texts:
        for ch in text:
            if ch.isspace() or ch in RESERVED:
                continue
            if ch not in seen:
                seen.add(ch)
                letters.append(ch)
    return Alphabet(tuple(letters) if letters else ("x",))


def oracle_equal_texts(lhs: str, rhs: str) -> bool:
    """Ground two formula texts over their own letters and compare by the
    brute-force morphism oracle in both directions."""
    alphabet = _identity_alphabet(lhs, rhs)
    x = evaluate(parse(lhs, alphabet))
    y = evaluate(parse(rhs, alphabet))
    return exists_morphism_bruteforce(x, y) and exists_morphism_bruteforce(y, x)


def evaluate_by_products(formula: Formula) -> SigmaTree:
    """Reference evaluator: folds the unpruned operations over the syntax
    tree, copying the edges so far at every letter (quadratic time)."""
    alphabet = formula.alphabet
    acc: list[SigmaTree] = [trivial_tree(alphabet)]
    ops: list = [None]
    streams = [iter(formula.factors)]
    while True:
        descended = False
        for item in streams[-1]:
            if type(item) is Letter:
                acc[-1] = unpruned_product(acc[-1], base_tree(item.letter, alphabet))
            else:
                acc.append(trivial_tree(alphabet))
                ops.append(item.op)
                streams.append(iter(item.body.factors))
                descended = True
                break
        if descended:
            continue
        streams.pop()
        tree = acc.pop()
        op = ops.pop()
        if op is None:
            return tree
        tree = unpruned_plus(tree) if op is UnaryOp.PLUS else unpruned_star(tree)
        acc[-1] = unpruned_product(acc[-1], tree)


def evaluate_by_nodes(formula: Formula) -> SigmaTree:
    """Reference evaluator: the linear cursor/glue pass over the syntax
    nodes (a ``*`` group starts at a new vertex, a ``+`` group at the outer
    cursor) that the text walk replaced."""
    alphabet = formula.alphabet
    known = alphabet._index
    edges: list[tuple[str, int, int]] = []
    glue = [-1]
    cursor = 0
    groups: list[tuple[int, UnaryOp, Iterator]] = []
    items: Iterator = iter(formula.factors)
    while True:
        for item in items:
            if type(item) is Letter:
                label = item.letter
                if label not in known:
                    alphabet.index(label)  # raises UnknownSymbol
                v = len(glue)
                edges.append((label, cursor, v))
                cursor = v
                glue.append(-1)
            else:
                groups.append((cursor, item.op, items))
                if item.op is UnaryOp.STAR:
                    cursor = len(glue)
                    glue.append(-1)
                items = iter(item.body.factors)
                break
        else:
            if not groups:
                break
            outer, op, items = groups.pop()
            if op is UnaryOp.STAR:
                glue[cursor] = outer
            cursor = outer
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


def ensure_admissible_by_walk(formula: Formula, mode: Mode) -> None:
    """Reference admissibility check: a walk of the syntax nodes that the
    text check replaced."""
    allowed = mode.allowed_ops()
    if mode.semigroup and not formula.factors:
        raise EmptyNotAllowed(detail="empty formula in semigroup mode")
    stack = list(formula.factors)
    while stack:
        item = stack.pop()
        if type(item) is Unary:
            if item.op not in allowed:
                raise OpNotInSignature(
                    detail=f"{item.op.value!r} is not in the signature of this mode"
                )
            if mode.semigroup and not item.body.factors:
                raise EmptyNotAllowed(detail="empty group in semigroup mode")
            stack.extend(item.body.factors)


def propagate_unmemoised(t1: SigmaTree, t2: SigmaTree) -> list[int]:
    """Reference candidate-set pass that recomputes every image.

    From full masks, cut to the target's start and end, each position in
    reverse preorder ANDs in, per child, the sources of the edges whose
    label and direction match the child's and whose head is a candidate of
    the child.  It reads the public traversal view of ``t1`` and groups the
    edges of ``t2`` by ``SignedLabel`` itself, so it shares no index with
    the library.
    """
    tr = traversal(t1)
    masks = [(1 << t2.vertex_count) - 1] * t1.vertex_count
    masks[0] &= 1 << t2.start
    masks[tr.position[t1.end]] &= 1 << t2.end
    children = tr.children
    groups = defaultdict(list)
    for label, s, t in t2.edges:
        groups[SignedLabel(label, False)].append((s, t))
        groups[SignedLabel(label, True)].append((t, s))
    nbytes = (t2.vertex_count + 7) // 8
    for p in range(t1.vertex_count - 1, -1, -1):
        bp = masks[p]
        for cp, slab in children[p]:
            member = masks[cp].to_bytes(nbytes, "little")
            buf = bytearray(nbytes)
            for x, y in groups.get(slab, ()):
                if (member[y >> 3] >> (y & 7)) & 1:
                    buf[x >> 3] |= 1 << (x & 7)
            bp &= int.from_bytes(buf, "little")
        masks[p] = bp
    return masks


def forward_reach(t1: SigmaTree, t2: SigmaTree) -> list[int]:
    """Per traversal position p of ``t1``, the mask of D(p): every vertex of
    ``t2`` reached from its start by reading p's path word from the start.

    Each vertex's word is read off the public traversal view of ``t1`` and
    walked through ``t2.edges`` letter by letter on its own, sharing nothing
    with the words of other vertices or with the library's indexes.
    """
    tr = traversal(t1)
    step = defaultdict(list)
    for label, s, t in t2.edges:
        step[SignedLabel(label, False), s].append(t)
        step[SignedLabel(label, True), t].append(s)
    reach = []
    for v in tr.order:
        word = []
        while tr.parent[v] is not None:
            v, slab = tr.parent[v]
            word.append(slab)
        current = {t2.start}
        for slab in reversed(word):
            current = {y for x in current for y in step[slab, x]}
        reach.append(sum(1 << y for y in current))
    return reach


def all_morphisms_recursive(t1: SigmaTree, t2: SigmaTree) -> Iterator[tuple[int, ...]]:
    """Reference enumeration: the recursive backtracker, one generator per
    level, that the library replaced with an explicit stack.  Yields every
    morphism's vertex map in the same order."""
    tr = traversal(t1)
    n = t1.vertex_count
    order = tr.order
    pairs = edge_pairs(t2)
    end1, end2 = t1.end, t2.end
    mapping = [-1] * n

    def place(k: int) -> Iterator[tuple[int, ...]]:
        if k == n:
            yield tuple(mapping)
            return
        v = order[k]
        parent, slab = tr.parent[v]
        src = mapping[parent]
        for x, y in pairs[2 * t2.alphabet.index(slab.letter) + slab.reverse]:
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


def edge_pairs(tree: SigmaTree) -> list[list[tuple[int, int]]]:
    """Per integer signed label ``2 * letter index + reverse``, in edge order:
    the pairs (x, y) such that there is an edge so labelled from x to y."""
    pairs: list[list[tuple[int, int]]] = [[] for _ in range(2 * len(tree.alphabet))]
    for label, s, t in tree.edges:
        k = 2 * tree.alphabet.index(label)
        pairs[k].append((s, t))
        pairs[k + 1].append((t, s))
    return pairs


def extract_morphism_by_scan(t1: SigmaTree, t2: SigmaTree) -> Optional[VertexMorphism]:
    """Reference witness: the per-edge scan that the library replaced with a
    pick from preimage masks.

    From the reference masks, each vertex in traversal order takes the least
    candidate y such that an edge labelled as the edge in leads from its
    parent's image to y.  It reads the public traversal view of ``t1`` and
    pairs built from ``t2.edges``.
    """
    masks = propagate_unmemoised(t1, t2)
    if masks[0] == 0:
        return None
    tr = traversal(t1)
    pairs = edge_pairs(t2)
    mapping = [-1] * t1.vertex_count
    first = masks[0]
    mapping[t1.start] = (first & -first).bit_length() - 1
    for p in range(1, t1.vertex_count):
        v = tr.order[p]
        parent, slab = tr.parent[v]
        src = mapping[parent]
        best = -1
        for x, y in pairs[2 * t1.alphabet.index(slab.letter) + slab.reverse]:
            if x == src and (masks[p] >> y) & 1 and (best < 0 or y < best):
                best = y
        if best < 0:
            raise RuntimeError(f"no supported candidate at traversal position {p}")
        mapping[v] = best
    return VertexMorphism(tuple(mapping))


def parse_by_index(text: str, alphabet: Alphabet, mode=None) -> Formula:
    """Reference parser: an index loop that reads a group's operator as soon
    as its ``)`` is seen, skipping whitespace ahead."""
    allowed = frozenset(UnaryOp) if mode is None else mode.allowed_ops()
    allow_empty = mode is None or not mode.semigroup
    known = alphabet._index
    stack: list[list] = [[]]
    opens: list[int] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in known:
            stack[-1].append(Letter(ch))
            i += 1
            continue
        if ch == "(":
            stack.append([])
            opens.append(i)
            i += 1
            continue
        if ch == ")":
            if len(stack) == 1:
                raise UnbalancedParenthesis(i)
            body = stack.pop()
            open_at = opens.pop()
            i += 1
            while i < n and text[i].isspace():
                i += 1
            if i >= n or text[i] not in "+*":
                raise BareGroup(i if i < n else n)
            op = UnaryOp(text[i])
            if op not in allowed:
                raise OpNotInSignature(i, f"{op.value!r} is not in the signature of this mode")
            if not body and not allow_empty:
                raise EmptyNotAllowed(open_at, "empty group in semigroup mode")
            stack[-1].append(Unary(op, Formula(tuple(body), alphabet)))
            i += 1
            continue
        if ch in "+*":
            raise DanglingUnary(i, f"{ch!r} must follow a closing parenthesis")
        raise UnknownSymbol(i, f"{ch!r}")
    if len(stack) > 1:
        raise UnbalancedParenthesis(n)
    if not stack[0] and not allow_empty:
        raise EmptyNotAllowed(0, "empty formula in semigroup mode")
    return Formula(tuple(stack[0]), alphabet)


def traversal_by_iterators(tree: SigmaTree) -> TraversalOrder:
    """Reference traversal: a depth-first search keeping one neighbour
    iterator per open vertex, marking vertices when they are visited.
    Neighbours are sorted by (letter rank, direction, id), from an adjacency
    built here straight from the edge list."""
    n = tree.vertex_count
    letters = tree.alphabet.letters
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for label, s, t in tree.edges:
        li = tree.alphabet.index(label)
        adj[s].append((li, 0, t))
        adj[t].append((li, 1, s))
    for entries in adj:
        entries.sort()
    position = [-1] * n
    order = [tree.start]
    position[tree.start] = 0
    parent: list[Optional[tuple[int, SignedLabel]]] = [None] * n
    span = [(0, 0)] * n
    children: list[list[tuple[int, SignedLabel]]] = [[] for _ in range(n)]
    stack = [(tree.start, iter(adj[tree.start]))]
    while stack:
        v, neighbours = stack[-1]
        descended = False
        for li, rev, w in neighbours:
            if position[w] < 0:
                slab = SignedLabel(letters[li], bool(rev))
                position[w] = len(order)
                children[position[v]].append((position[w], slab))
                parent[w] = (v, slab)
                order.append(w)
                stack.append((w, iter(adj[w])))
                descended = True
                break
        if not descended:
            stack.pop()
            span[v] = (position[v], len(order))
    return TraversalOrder(
        tuple(order),
        tuple(position),
        tuple(parent),
        tuple(tuple(c) for c in children),
        tuple(span),
    )



def _sorted_adjacency(tree: SigmaTree) -> list[list[int]]:
    # Per vertex: s * n + w for each neighbour w reached along the integer
    # signed label s, sorted, built here straight from the edge list.
    n = tree.vertex_count
    adj: list[list[int]] = [[] for _ in range(n)]
    for label, s, t in tree.edges:
        k = 2 * tree.alphabet.index(label) * n
        adj[s].append(k + t)
        adj[t].append(k + n + s)
    for entries in adj:
        entries.sort()
    return adj


def pruned_vertex_set_by_adjacency(tree: SigmaTree) -> frozenset[int]:
    """Reference sweep: the one the library replaced with a walk over child
    groups in traversal order.  At each vertex ``w`` in traversal order and
    each signed label, the like-labelled neighbours still present, read
    from a sorted adjacency list, form K; a neighbour later than ``w`` is
    deleted with its subtree, latest first, unless it is the only member of
    K among its own candidate images."""
    n = tree.vertex_count
    if n == 1:
        return frozenset((0,))
    tr = traversal(tree)
    masks = candidate_sets(tree, tree).masks
    adjacency = _sorted_adjacency(tree)
    position, order, span = tr.position, tr.order, tr.span
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
            kmask = 0
            for u in members:
                kmask |= 1 << u
            later = [u for u in members if position[u] > p]
            later.sort(key=position.__getitem__, reverse=True)
            for u in later:
                if kmask & masks[position[u]] != 1 << u:
                    kmask &= ~(1 << u)
                    lo, hi = span[u]
                    for q in range(lo, hi):
                        alive[order[q]] = 0
    return frozenset(v for v in range(n) if alive[v])


def canonical_word_by_bfs(tree: SigmaTree) -> str:
    """Reference canonical word: the breadth-first walk away from the trunk
    over a sorted adjacency list that the library replaced with a reverse
    preorder pass over its traversal."""
    letters = tree.alphabet.letters
    omega_key = tree.alphabet.omega_key
    n = tree.vertex_count
    adjacency = _sorted_adjacency(tree)
    trunk_info = trunk(tree)
    visited = bytearray(n)
    for v in trunk_info.vertices:
        visited[v] = 1
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
        taus.sort(key=omega_key)
        return "".join(taus)

    for v in reversed(offtrunk_order):
        hanging[v] = assemble(v)
    parts = [assemble(trunk_info.vertices[0])]
    for label, v in zip(trunk_info.labels, trunk_info.vertices[1:]):
        parts.append(label)
        parts.append(assemble(v))
    return "".join(parts)

# The dataclass definitions that the library's value classes replaced, with
# what shapes their generated methods: the decorator, the fields in order,
# ``Alphabet``'s tuple conversion and ``Formula``'s own equality.  Each keeps
# the name of the class it stands for, so ``repr`` texts compare.


@dataclass(frozen=True)
class DataclassAlphabet:
    __qualname__ = "Alphabet"
    letters: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))


@dataclass(frozen=True)
class DataclassLetter:
    __qualname__ = "Letter"
    letter: str


@dataclass(frozen=True)
class DataclassUnary:
    __qualname__ = "Unary"
    op: UnaryOp
    body: Formula


@dataclass(frozen=True, eq=False)
class DataclassFormula:
    __qualname__ = "Formula"
    factors: tuple
    alphabet: Alphabet

    def __getattr__(self, name: str):
        if name != "_text":
            raise AttributeError(name)
        text = self.__dict__["_text"] = _render_factors(self.factors)
        return text

    def __eq__(self, other):
        if type(other) is not DataclassFormula:
            return NotImplemented
        return self.alphabet == other.alphabet and self._text == other._text

    def __hash__(self) -> int:
        return hash((self.alphabet, self._text))


@dataclass(frozen=True)
class DataclassVertexMorphism:
    __qualname__ = "VertexMorphism"
    mapping: tuple[int, ...]


@dataclass
class DataclassCandidateSets:
    __qualname__ = "CandidateSets"
    masks: list[int]
    target_count: int


@dataclass(frozen=True)
class DataclassPrunedWitness:
    __qualname__ = "PrunedWitness"
    kept: frozenset[int]
    tree: SigmaTree
    embedding: tuple[int, ...]


@dataclass(frozen=True)
class DataclassMode:
    __qualname__ = "Mode"
    sidedness: Sidedness = Sidedness.TWO_SIDED
    semigroup: bool = False
    swap_sided_ops: bool = False


@dataclass(frozen=True)
class DataclassTraversalOrder:
    __qualname__ = "TraversalOrder"
    order: tuple[int, ...]
    position: tuple[int, ...]
    parent: tuple
    children: tuple
    span: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class DataclassSigmaTree:
    __qualname__ = "SigmaTree"
    alphabet: Alphabet
    vertex_count: int
    start: int
    end: int
    edges: tuple[tuple[str, int, int], ...]


DATACLASS_REFERENCES = {
    Alphabet: DataclassAlphabet,
    Letter: DataclassLetter,
    Unary: DataclassUnary,
    Formula: DataclassFormula,
    VertexMorphism: DataclassVertexMorphism,
    CandidateSets: DataclassCandidateSets,
    PrunedWitness: DataclassPrunedWitness,
    Mode: DataclassMode,
    TraversalOrder: DataclassTraversalOrder,
    SigmaTree: DataclassSigmaTree,
}


def dataclass_reference(value):
    """The reference dataclass instance that holds ``value``'s field values."""
    cls = DATACLASS_REFERENCES[type(value)]
    return cls(*(getattr(value, field.name) for field in fields(cls)))
