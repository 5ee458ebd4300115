"""Independent oracles used by the tests.

These deliberately avoid the library's own traversal / canonical-word
machinery: structural keys are built straight from the edge list, and
descendant sets come from explicit path enumeration.  The parser, the
evaluators, the traversal, the propagation pass, the recursive morphism enumeration, the adjacency-list pruning sweep, the
breadth-first canonical word, the re-grounding identity check, the random
tree generator's own depth-first search, the idempotence test through
pruning and the bench's log-log slope from hand-summed moments, which the
library replaced with faster or smaller code, are kept here as
differential references; the replacements must give identical
results (the identity check: identical answers, and a ``FormulaError`` on
both sides where an operand does not fit the mode; the slope: within
1e-12 where the sizes vary).  So are the dataclass definitions of the
value classes, which the library replaced with plain classes that import
no ``dataclasses``.  The propagation pass now also runs a forward pass, so
its masks are the reference pass's ANDed with ``forward_reach``.

The polynomial judge (``morphism_exists_by_programme`` and ``is_core``)
decides morphisms and cores on trees of any size from the trees' fields
alone, so it judges inputs too large for the brute-force oracles without
sharing code with the pipeline.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, fields
from random import Random
from typing import Iterator, Optional

from adequate import (
    Alphabet,
    BareGroup,
    DanglingUnary,
    EmptyNotAllowed,
    Formula,
    Mode,
    OpNotInSignature,
    PrunedWitness,
    Sidedness,
    SigmaTree,
    TraversalOrder,
    Unary,
    UnaryOp,
    UnbalancedParenthesis,
    UnknownSymbol,
    VertexMorphism,
    base_tree,
    candidate_sets,
    canonical_formula,
    ensure_admissible,
    equal,
    evaluate,
    parse,
    prune,
    render,
    trivial_tree,
    trunk,
    unpruned_plus,
    unpruned_product,
    unpruned_star,
    validate,
)
from adequate.formula import RESERVED, _render_factors
from adequate.generate import _decode_prufer
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


def morphism_exists_by_programme(t1: SigmaTree, t2: SigmaTree) -> bool:
    """Judge: is there a morphism from ``t1`` to ``t2`` (one alphabet)?

    A bottom-up dynamic programme over the source, rooted at its start in a
    breadth-first order of its own.  Children first, each source vertex
    keeps the set of target vertices that can host its subtree: those with,
    for every child edge, a like-labelled neighbour in the child's set.  The
    source's end keeps at most the target's end.  A morphism exists iff the
    target's start hosts the root; exact for tree sources.  It reads only
    the trees' fields: no traversal, preimage index, bitmask or memo.
    """
    neighbours = defaultdict(list)
    for label, s, t in t1.edges:
        neighbours[s].append((label, False, t))
        neighbours[t].append((label, True, s))
    # (label, reverse, y): every x with an edge so labelled from x to y.
    sources = defaultdict(list)
    for label, s, t in t2.edges:
        sources[label, False, t].append(s)
        sources[label, True, s].append(t)
    order = [t1.start]
    seen = {t1.start}
    for v in order:
        for _, _, w in neighbours[v]:
            if w not in seen:
                seen.add(w)
                order.append(w)
    hosts: dict[int, set[int]] = {}
    for v in reversed(order):
        can = {t2.end} if v == t1.end else set(range(t2.vertex_count))
        for label, reverse, w in neighbours[v]:
            if w in hosts:  # a child; the parent comes later
                can &= {x for y in hosts[w] for x in sources[label, reverse, y]}
        hosts[v] = can
    return t2.start in hosts[t1.start]


def without_leaf(tree: SigmaTree, leaf: int) -> SigmaTree:
    """The tree less one leaf that is not a basepoint, renumbered in order."""
    def new(v: int) -> int:
        return v - (v > leaf)

    edges = tuple((label, new(s), new(t)) for label, s, t in tree.edges if leaf not in (s, t))
    return SigmaTree(tree.alphabet, tree.vertex_count - 1, new(tree.start), new(tree.end), edges)


def free_leaves(tree: SigmaTree) -> list[int]:
    """The leaves of the tree that are not basepoints, in increasing order."""
    degree = Counter(v for _, s, t in tree.edges for v in (s, t))
    return sorted(v for v, d in degree.items() if d == 1 and v not in (tree.start, tree.end))


def is_core(tree: SigmaTree) -> bool:
    """Judge: True iff the tree has no proper retract.

    A proper retract keeps both basepoints and, as a proper subtree, misses
    a leaf that is not a basepoint; so a tree has one exactly when it maps
    into itself less some such leaf.
    """
    return not any(morphism_exists_by_programme(tree, without_leaf(tree, v)) for v in free_leaves(tree))


def evaluate_roundtrip_check(tree: SigmaTree) -> bool:
    """True iff the canonical formula evaluates back to the same tree.

    Sameness is judged without the library's morphism test: equal vertex
    counts plus morphisms both ways, by the judge.
    """
    again = evaluate(canonical_formula(tree))
    return (
        again.vertex_count == tree.vertex_count
        and morphism_exists_by_programme(again, tree)
        and morphism_exists_by_programme(tree, again)
    )


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


def check_identity_by_regrounding(lhs: Formula, rhs: Formula, mode: Mode) -> bool:
    """Reference for ``solver.check_identity``: always renders both sides and
    parses them again over the letters that occur in them."""
    lhs_text, rhs_text = render(lhs), render(rhs)
    alphabet = _identity_alphabet(lhs_text, rhs_text)
    return equal(parse(lhs_text, alphabet, mode), parse(rhs_text, alphabet, mode), mode)


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
            if type(item) is str:
                acc[-1] = unpruned_product(acc[-1], base_tree(item, alphabet))
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
            if type(item) is str:
                if item not in known:
                    alphabet.index(item)  # raises UnknownSymbol
                v = len(glue)
                edges.append((item, cursor, v))
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


def propagate_unmemoised(t1: SigmaTree, t2: SigmaTree) -> list[int]:
    """Reference candidate-set pass that recomputes every image.

    From full masks, cut to the target's start and end, each position in
    reverse preorder ANDs in, per child, the sources of the edges whose
    label and direction match the child's and whose head is a candidate of
    the child.  It reads the children off the reference walk of ``t1`` and
    groups the edges of ``t2`` by ``(letter, reverse)`` itself, so it shares
    no index with the library.
    """
    walk, _, children = _reference_links(t1)
    masks = [(1 << t2.vertex_count) - 1] * t1.vertex_count
    masks[0] &= 1 << t2.start
    masks[walk.position[t1.end]] &= 1 << t2.end
    groups = defaultdict(list)
    for label, s, t in t2.edges:
        groups[label, False].append((s, t))
        groups[label, True].append((t, s))
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

    Each vertex's word is read off the parent edges of the reference walk
    of ``t1`` and walked through ``t2.edges`` letter by letter on its own,
    sharing nothing with the words of other vertices or with the library's
    indexes.
    """
    walk, parent, _ = _reference_links(t1)
    step = defaultdict(list)
    for label, s, t in t2.edges:
        step[(label, False), s].append(t)
        step[(label, True), t].append(s)
    reach = []
    for v in walk.order:
        word = []
        while parent[v] is not None:
            v, slab = parent[v]
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
    walk, parent_edge, _ = _reference_links(t1)
    n = t1.vertex_count
    order = walk.order
    pairs = edge_pairs(t2)
    end1, end2 = t1.end, t2.end
    mapping = [-1] * n

    def place(k: int) -> Iterator[tuple[int, ...]]:
        if k == n:
            yield tuple(mapping)
            return
        v = order[k]
        parent, (letter, reverse) = parent_edge[v]
        src = mapping[parent]
        for x, y in pairs[2 * t2.alphabet.index(letter) + reverse]:
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
    parent's image to y.  It reads the parent edges of the reference walk
    of ``t1`` and pairs built from ``t2.edges``.
    """
    masks = propagate_unmemoised(t1, t2)
    if masks[0] == 0:
        return None
    walk, parent_edge, _ = _reference_links(t1)
    pairs = edge_pairs(t2)
    mapping = [-1] * t1.vertex_count
    first = masks[0]
    mapping[t1.start] = (first & -first).bit_length() - 1
    for p in range(1, t1.vertex_count):
        v = walk.order[p]
        parent, (letter, reverse) = parent_edge[v]
        src = mapping[parent]
        best = -1
        for x, y in pairs[2 * t1.alphabet.index(letter) + reverse]:
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
            stack[-1].append(ch)
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
    built here straight from the edge list.  Each subtree's size is counted
    when its vertex's iterator runs out."""
    n = tree.vertex_count
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
    up = [-1]
    label = [-1]
    size = [0]
    stack = [(tree.start, iter(adj[tree.start]))]
    while stack:
        v, neighbours = stack[-1]
        descended = False
        for li, rev, w in neighbours:
            if position[w] < 0:
                position[w] = len(order)
                order.append(w)
                up.append(position[v])
                label.append(2 * li + rev)
                size.append(0)
                stack.append((w, iter(adj[w])))
                descended = True
                break
        if not descended:
            stack.pop()
            size[position[v]] = len(order) - position[v]
    return TraversalOrder(tuple(order), tuple(position), tuple(up), tuple(label), tuple(size))


def _reference_links(tree: SigmaTree):
    """The reference walk of ``tree``, and read off it: per vertex, the
    parent vertex and the ``(letter, reverse)`` pair of the edge in (None at
    the start); per position, the child positions with those pairs."""
    walk = traversal_by_iterators(tree)
    letters = tree.alphabet.letters
    parent: list[Optional[tuple[int, tuple[str, bool]]]] = [None] * tree.vertex_count
    children: list[list[tuple[int, tuple[str, bool]]]] = [[] for _ in walk.order]
    for p in range(1, len(walk.order)):
        slab = (letters[walk.label[p] >> 1], bool(walk.label[p] & 1))
        parent[walk.order[p]] = (walk.order[walk.up[p]], slab)
        children[walk.up[p]].append((p, slab))
    return walk, parent, children


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
    walk = traversal_by_iterators(tree)
    masks = candidate_sets(tree, tree)
    adjacency = _sorted_adjacency(tree)
    position, order, size = walk.position, walk.order, walk.size
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
                    lo = position[u]
                    for q in range(lo, lo + size[lo]):
                        alive[order[q]] = 0
    return frozenset(v for v in range(n) if alive[v])


def word_order_key(alphabet: Alphabet):
    """Sort key for formula words in the word order: generators in alphabet
    order, then ``( ) + *``, compared rank by rank, a prefix first."""
    rank = {ch: i for i, ch in enumerate(alphabet.letters + ("(", ")", "+", "*"))}
    return lambda word: [rank[ch] for ch in word]


def canonical_word_by_bfs(tree: SigmaTree) -> str:
    """Reference canonical word: the breadth-first walk away from the trunk
    over a sorted adjacency list that the library replaced with a reverse
    preorder pass over its traversal."""
    letters = tree.alphabet.letters
    key = word_order_key(tree.alphabet)
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
        taus.sort(key=key)
        return "".join(taus)

    for v in reversed(offtrunk_order):
        hanging[v] = assemble(v)
    parts = [assemble(trunk_info.vertices[0])]
    for label, v in zip(trunk_info.labels, trunk_info.vertices[1:]):
        parts.append(label)
        parts.append(assemble(v))
    return "".join(parts)


def random_tree_by_dfs(rng: Random, edge_count: int, alphabet: Alphabet) -> SigmaTree:
    """Reference random tree: the generator as it was before it read the
    0 -> end path off the tree's traversal.  It re-orients that path through
    a parent array from its own depth-first search over incidence lists, and
    draws from ``rng`` exactly as the library does."""
    if edge_count == 0:
        return trivial_tree(alphabet)
    n = edge_count + 1
    if n == 2:
        undirected = [(0, 1)]
    else:
        seq = [rng.randrange(n) for _ in range(n - 2)]
        undirected = _decode_prufer(seq, n)
    letters = alphabet.letters
    edges = []
    for u, v in undirected:
        if rng.random() < 0.5:
            u, v = v, u
        edges.append([rng.choice(letters), u, v])
    end = rng.randrange(n)
    incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for idx, (_, u, v) in enumerate(edges):
        incident[u].append((v, idx))
        incident[v].append((u, idx))
    parent: list[Optional[tuple[int, int]]] = [None] * n
    seen = bytearray(n)
    seen[0] = 1
    stack = [0]
    while stack:
        v = stack.pop()
        for w, idx in incident[v]:
            if not seen[w]:
                seen[w] = 1
                parent[w] = (v, idx)
                stack.append(w)
    v = end
    while v != 0:
        u, idx = parent[v]
        edges[idx][1], edges[idx][2] = u, v
        v = u
    return validate(n, 0, end, edges, alphabet)


def is_idempotent_by_pruning(formula: Formula, mode: Mode) -> bool:
    """Reference idempotence test: basepoints coincide in the pruned tree,
    which the library replaced with the same test on the unpruned tree."""
    ensure_admissible(formula, mode)
    pruned = prune(evaluate(formula)).tree
    return pruned.start == pruned.end


def loglog_slope_by_moments(points: list[tuple[int, float]]) -> float:
    """Reference least-squares slope of log time on log size, from means,
    variance and covariance summed by hand, which the library replaced with
    ``statistics.linear_regression``.  It reads 0.0 only where the summed
    variance is exactly 0, which rounding can miss for equal sizes."""
    xs = [math.log(s) for s, _ in points]
    ys = [math.log(max(t, 1e-9)) for _, t in points]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    var = sum((x - mean_x) ** 2 for x in xs)
    if var == 0:
        return 0.0
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return cov / var


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
        text = self.__dict__["_text"] = _render_factors(self.factors, self.alphabet)
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
class DataclassSigmaTree:
    __qualname__ = "SigmaTree"
    alphabet: Alphabet
    vertex_count: int
    start: int
    end: int
    edges: tuple[tuple[str, int, int], ...]


DATACLASS_REFERENCES = {
    Alphabet: DataclassAlphabet,
    Unary: DataclassUnary,
    Formula: DataclassFormula,
    VertexMorphism: DataclassVertexMorphism,
    PrunedWitness: DataclassPrunedWitness,
    Mode: DataclassMode,
    SigmaTree: DataclassSigmaTree,
}


def dataclass_reference(value):
    """The reference dataclass instance that holds ``value``'s field values."""
    cls = DATACLASS_REFERENCES[type(value)]
    return cls(*(getattr(value, field.name) for field in fields(cls)))
