"""Seeded benchmark inputs, each with an answer certified without `adequate`.

This module never imports the library under test, so a defect in the library
cannot make an input and its expected answer agree by accident.

Certificates:

* Equal pairs.  The second formula is the first rewritten by identities of
  the free adequate monoids, applied to subformulas under substitution, e.g.
  ``u -> (u)+u``, ``u -> u(u)*``, ``(uv)+ -> (u(v)+)+``.  Both sides therefore
  denote the same element.
* Unequal pairs.  Every vertex of an evaluated tree has a *position*: the
  free-group reduction of the signed label word along the path from the
  start vertex.  A morphism s -> t maps each vertex to one with the same
  position and the end to the end, so it implies ``P(s) <= P(t)`` with equal
  end positions, and equal elements have equal position sets.  A pair whose
  position sets differ is certified unequal.
* Morph witnesses are checked edge by edge against the target's edge set.

Run as a script, ``python3 inputs.py WORKLOAD SEED COUNT`` prints the queries
of a workload, one JSON object a line.  The benchmark does this in a child
process that writes to a file, and reads one query at a time from it, so
input generation neither counts in its timings nor raises its peak memory.
"""

from __future__ import annotations

import heapq
import json
import sys
from random import Random

LETTERS = "ab"
IDENTITY_LETTERS = "xy"

# Sizes named by the workloads: base tree edges, edges after rewriting.
EQ_BASE_EDGES, EQ_REWRITTEN_EDGES = 640, 800
CLI_MAX_CHARS, CLI_MAX_TREE_EDGES = 60, 30

MUTATION_TRIES = 40


# --- trees ---------------------------------------------------------------
# A tree is (vertex count, start, end, [(label, source, target), ...]).


def random_tree(rng: Random, edge_count: int, letters: str = LETTERS):
    """A uniformly random tree shape with random labels and orientations.

    The shape is decoded from a random Pruefer sequence; the end vertex is
    drawn at random and the start (vertex 0) to end path is oriented
    forwards so the trunk exists.
    """
    n = edge_count + 1
    if n == 1:
        return 1, 0, 0, []
    if n == 2:
        pairs = [(0, 1)]
    else:
        seq = [rng.randrange(n) for _ in range(n - 2)]
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        leaves = [v for v in range(n) if degree[v] == 1]
        heapq.heapify(leaves)
        pairs = []
        for v in seq:
            pairs.append((heapq.heappop(leaves), v))
            degree[v] -= 1
            if degree[v] == 1:
                heapq.heappush(leaves, v)
        pairs.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    adjacent = [[] for _ in range(n)]
    for u, v in pairs:
        adjacent[u].append(v)
        adjacent[v].append(u)
    parent = [-1] * n
    parent[0] = 0
    order = [0]
    for v in order:
        for w in adjacent[v]:
            if parent[w] < 0:
                parent[w] = v
                order.append(w)
    end = rng.randrange(n)
    on_trunk = set()
    v = end
    while v != 0:
        on_trunk.add(v)
        v = parent[v]
    edges = []
    for u, v in pairs:
        if parent[u] == v:
            u, v = v, u  # now u is the parent of v
        if v not in on_trunk and rng.random() < 0.5:
            u, v = v, u
        edges.append((rng.choice(letters), u, v))
    return n, 0, end, edges


def relabel(rng: Random, tree):
    """The same tree under a random vertex permutation and edge order."""
    n, start, end, edges = tree
    perm = list(range(n))
    rng.shuffle(perm)
    moved = [(label, perm[s], perm[t]) for label, s, t in edges]
    rng.shuffle(moved)
    return n, perm[start], perm[end], moved


def tree_text(tree, canonical: bool = False) -> str:
    """A formula that evaluates to ``tree``.

    Branches hanging off a vertex along an outgoing ``a``-edge become
    ``(aW)+`` and along an incoming one ``(Wa)*``, where W is the hanging
    word of the branch; trunk labels interleave the trunk vertices' words.
    With ``canonical`` the branches of each vertex are sorted, which makes
    the text a complete isomorphism invariant of the tree.
    """
    n, start, end, edges = tree
    adjacent = [[] for _ in range(n)]
    for label, s, t in edges:
        adjacent[s].append((t, label, False))
        adjacent[t].append((s, label, True))
    parent = [-1] * n
    parent[start] = start
    order = [start]
    for v in order:
        for w, _, _ in adjacent[v]:
            if parent[w] < 0:
                parent[w] = v
                order.append(w)
    trunk = [end]
    while trunk[-1] != start:
        trunk.append(parent[trunk[-1]])
    trunk.reverse()
    seen = bytearray(n)
    for v in trunk:
        seen[v] = 1
    children = [[] for _ in range(n)]
    queue = list(trunk)
    for v in queue:
        for w, label, reverse in adjacent[v]:
            if not seen[w]:
                seen[w] = 1
                children[v].append((w, label, reverse))
                queue.append(w)
    hanging = [""] * n

    def assemble(v: int) -> str:
        words = [
            f"({hanging[w]}{label})*" if reverse else f"({label}{hanging[w]})+"
            for w, label, reverse in children[v]
        ]
        if canonical:
            words.sort()
        return "".join(words)

    for v in reversed(queue[len(trunk):]):
        hanging[v] = assemble(v)
    parts = [assemble(start)]
    for prev, v in zip(trunk, trunk[1:]):
        label = next(l for w, l, reverse in adjacent[prev] if w == v and not reverse)
        parts.append(label)
        parts.append(assemble(v))
    return "".join(parts)


def tree_json(tree, alphabet: str = LETTERS) -> str:
    """The library's tree JSON format for ``tree``."""
    n, start, end, edges = tree
    return json.dumps(
        {
            "alphabet": alphabet,
            "n": n,
            "start": start,
            "end": end,
            "edges": [{"l": l, "s": s, "t": t} for l, s, t in edges],
        },
        separators=(",", ":"),
    )


def tree_from_json(text: str):
    obj = json.loads(text)
    return obj["n"], obj["start"], obj["end"], [(e["l"], e["s"], e["t"]) for e in obj["edges"]]


# --- formula text as a mutable syntax tree -------------------------------
# A sequence is a list of factors; a factor is a letter or [op, sequence].


def parse_text(text: str) -> list:
    stack: list[list] = [[]]
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            stack.append([])
        elif ch == ")":
            body = stack.pop()
            i += 1
            stack[-1].append([text[i], body])
        else:
            stack[-1].append(ch)
        i += 1
    return stack[0]


def render_text(seq: list) -> str:
    out = []
    stack = list(reversed(seq))
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
        else:
            out.append("(")
            stack.append(")" + item[0])
            stack.extend(reversed(item[1]))
    return "".join(out)


def _sequences(seq: list) -> list[list]:
    """Every sequence nested in ``seq``, itself included."""
    found = [seq]
    for s in found:
        for item in s:
            if type(item) is not str:
                found.append(item[1])
    return found


def _copy(seq: list) -> list:
    return [item if type(item) is str else [item[0], _copy(item[1])] for item in seq]


def edge_count(text: str) -> int:
    return sum(1 for ch in text if ch not in "()+*")


def _grow(rng: Random, seq: list, i: int) -> list | None:
    """``u -> (u)+u`` or ``u -> u(u)*`` on one or two factors; new sequences."""
    k = min(len(seq) - i, rng.choice((1, 2)))
    chunk = seq[i:i + k]
    if edge_count(render_text(chunk)) > 6:
        return None
    dup = _copy(chunk)
    if rng.random() < 0.5:
        seq[i:i + k] = [["+", dup]] + chunk
    else:
        seq[i:i + k] = chunk + [["*", dup]]
    return _sequences(dup)


def _reshape(rng: Random, seq: list, i: int) -> list | None:
    """One edge-preserving identity at factor ``i``; new sequences, or None."""
    item = seq[i]
    pair = i + 1 < len(seq) and type(item) is not str and type(seq[i + 1]) is not str
    rule = rng.randrange(5)
    if type(item) is str:
        return None
    op, body = item
    if rule == 0:  # ((x)+)+ = (x)+ and ((x)*)* = (x)*
        inner = [[op, body]]
        seq[i] = [op, inner]
        return [inner]
    if rule == 1:  # ((x)+)* = (x)+ and ((x)*)+ = (x)*
        inner = [[op, body]]
        seq[i] = ["*" if op == "+" else "+", inner]
        return [inner]
    if rule == 2 and len(body) >= 2:  # (xy)+ = (x(y)+)+ and (xy)* = ((x)*y)*
        j = rng.randrange(1, len(body))
        if op == "+":
            tail = body[j:]
            body[j:] = [["+", tail]]
            return [tail]
        head = body[:j]
        body[:j] = [["*", head]]
        return [head]
    if rule == 3 and pair and seq[i + 1][0] == op:  # (x)+(y)+ = (y)+(x)+, same for *
        seq[i], seq[i + 1] = seq[i + 1], seq[i]
        return []
    if rule == 4 and pair and seq[i + 1][0] == op:
        other = seq[i + 1][1]
        if op == "+":  # (x)+(y)+ = ((x)+y)+
            other[:0] = [["+", body]]
            seq[i:i + 2] = [["+", other]]
        else:  # (x)*(y)* = (x(y)*)*
            body.append(["*", other])
            seq[i:i + 2] = [["*", body]]
        return []
    return None


def rewrite(rng: Random, text: str, grow_to: int, reshapes: int) -> str:
    """Apply identities until the formula has ``grow_to`` edges and
    ``reshapes`` edge-preserving rewrites were made; the element is kept."""
    root = parse_text(text)
    sequences = _sequences(root)
    edges = edge_count(text)
    misses = 0  # a formula without groups admits no reshape until it grows
    while edges < grow_to or reshapes > 0:
        seq = rng.choice(sequences)
        i = rng.randrange(len(seq))
        if misses > 100 or (edges < grow_to and (reshapes <= 0 or rng.random() < 0.5)):
            added = _grow(rng, seq, i)
            if added is not None:
                sequences.extend(added)
                edges += edge_count(render_text(added[0]))
                misses = 0
        else:
            added = _reshape(rng, seq, i)
            if added is None:
                misses += 1
            else:
                sequences.extend(added)
                reshapes -= 1
                misses = 0
    return render_text(root)


def mutate(rng: Random, text: str, letters: str = LETTERS) -> str | None:
    """Change one letter off the trunk, keeping the trunk word; None if
    no mutant with a different position set was found."""
    depth = 0
    sites = []
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch not in "+*" and depth > 0:
            sites.append(i)
    if not sites:
        return None
    reference = positions_of_text(text)
    for _ in range(MUTATION_TRIES):
        i = rng.choice(sites)
        other = rng.choice([l for l in letters if l != text[i]])
        mutant = text[:i] + other + text[i + 1:]
        if positions_of_text(mutant) != reference:
            return mutant
    return None


# --- positions: the certificate for inequality ---------------------------


def _positions(start: int, end: int, edges) -> tuple[frozenset, str]:
    """(position set, end position); letters forwards, upper case backwards."""
    adjacent: dict[int, list] = {start: []}
    for label, s, t in edges:
        adjacent.setdefault(s, []).append((t, label))
        adjacent.setdefault(t, []).append((s, label.upper()))
    word = {start: ""}
    queue = [start]
    for v in queue:
        here = word[v]
        for w, symbol in adjacent[v]:
            if w not in word:
                if here and here[-1] == symbol.swapcase():
                    word[w] = here[:-1]
                else:
                    word[w] = here + symbol
                queue.append(w)
    return frozenset(word.values()), word[end]


def positions_of_tree(tree) -> tuple[frozenset, str]:
    _, start, end, edges = tree
    return _positions(start, end, edges)


def positions_of_text(text: str) -> tuple[frozenset, str]:
    """Evaluate formula text independently and return its positions.

    A ``(u)+`` group glues the start of u to the current vertex; a ``(u)*``
    group glues the end of u to it.  Gluing is union-find over vertex ids.
    """
    parent = [0]

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    edges = []
    frames = [[0, 0]]  # per open group: its start vertex and current vertex
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            v = len(parent)
            parent.append(v)
            frames.append([v, v])
        elif ch == ")":
            start, current = frames.pop()
            i += 1
            parent[find(start if text[i] == "+" else current)] = find(frames[-1][1])
        else:
            w = len(parent)
            parent.append(w)
            edges.append((ch, frames[-1][1], w))
            frames[-1][1] = w
        i += 1
    glued = [(label, find(s), find(t)) for label, s, t in edges]
    return _positions(find(0), find(frames[0][1]), glued)


def certified_no_morphism(source, target) -> bool:
    """No morphism source -> target can exist."""
    (src_set, src_end), (dst_set, dst_end) = source, target
    return src_end != dst_end or not src_set <= dst_set


def verify_witness(source, target, mapping) -> bool:
    """Check a vertex map edge by edge: basepoints and every labelled edge."""
    n1, s1, e1, edges1 = source
    n2, s2, e2, edges2 = target
    if not isinstance(mapping, list) or len(mapping) != n1:
        return False
    if any(type(v) is not int or not 0 <= v < n2 for v in mapping):
        return False
    if mapping[s1] != s2 or mapping[e1] != e2:
        return False
    edge_set = {tuple(edge) for edge in edges2}
    return all((l, mapping[s], mapping[t]) in edge_set for l, s, t in edges1)


# --- workloads -----------------------------------------------------------


def _base_text(rng: Random, edges: int, letters: str = LETTERS) -> str:
    return tree_text(random_tree(rng, edges, letters))


def _certified_mutant(rng: Random, text: str, letters: str = LETTERS) -> str:
    for _ in range(MUTATION_TRIES):
        mutant = mutate(rng, text, letters)
        if mutant is not None:
            return mutant
    raise ValueError(f"no certified mutant of {text[:40]}...")


def eq_large(seed: int, count: int) -> list[dict]:
    """Pairs for `equal`: half equal, half certified unequal, orders alternate.

    Per base tree: ``(f, g)`` with g a rewrite of f, and ``(m, g)`` with m a
    one-letter mutant of f off the trunk.  Every second base swaps the two
    formulas of both pairs.
    """
    rng = Random(seed)
    queries = []
    while len(queries) < count:
        f = _base_text(rng, EQ_BASE_EDGES)
        g = rewrite(rng, f, EQ_REWRITTEN_EDGES, EQ_BASE_EDGES // 8)
        m = _certified_mutant(rng, f)
        swap = len(queries) % 4 == 2
        for first, answer in ((f, True), (m, False)):
            args = [g, first] if swap else [first, g]
            queries.append({
                "kind": "eq",
                "args": args,
                "answer": answer,
                "edges": edge_count(first) + edge_count(g),
            })
    return queries[:count]


def _small_text(rng: Random, letters: str) -> tuple[str, str]:
    """A small formula and an identity rewrite of it, both within the size limit."""
    while True:
        f = _base_text(rng, rng.randint(2, 9), letters)
        g = rewrite(rng, f, edge_count(f) + rng.randint(1, 3), 2)
        if len(g) <= CLI_MAX_CHARS and len(f) <= CLI_MAX_CHARS:
            return f, g


MALFORMED = (
    ["eq", "(ab", "a"],
    ["nf", "a)+"],
    ["nf", "a+b"],
    ["eq", "(a)b", "a"],
    ["nf", "acb"],
    ["check-identity", "(x", "x"],
    ["morph", '{"alphabet":"ab","n":3,"start":0,"end":1,"edges":[{"l":"a","s":0,"t":1}]}', "a"],
    ["prune", '{"alphabet":"ab","n":2,"start":0,"end":1,"edges":[{"l":"a","s":1,"t":0}]}'],
)

CLI_MIX = (("eq", 25), ("nf", 20), ("check-identity", 15), ("morph", 15), ("prune", 20), ("malformed", 5))


def _cli_eq(rng: Random) -> list[dict]:
    f, g = _small_text(rng, LETTERS)
    m = mutate(rng, f, LETTERS)
    out = [{"argv": ["eq", f, g], "exit": 0, "stdout": "equal", "answer": True}]
    if m is not None and len(m) <= CLI_MAX_CHARS:
        out.append({"argv": ["eq", g, m], "exit": 1, "stdout": "not-equal", "answer": False})
    return out


def _cli_nf(rng: Random, group: int) -> list[dict]:
    f, g = _small_text(rng, LETTERS)
    return [{"argv": ["nf", text], "exit": 0, "group": group} for text in (f, g)]


def _cli_identity(rng: Random) -> list[dict]:
    f, g = _small_text(rng, IDENTITY_LETTERS)
    out = [{"argv": ["check-identity", f, g], "exit": 0, "stdout": "holds"}]
    m = mutate(rng, g, IDENTITY_LETTERS)
    if m is not None and len(m) <= CLI_MAX_CHARS:
        out.append({"argv": ["check-identity", f, m], "exit": 1, "stdout": "fails"})
    return out


def _cli_morph(rng: Random) -> list[dict]:
    source = random_tree(rng, rng.randint(2, 15))
    if rng.random() < 0.5:
        # The source embeds into itself with extra branches: a morphism exists.
        n, start, end, edges = source
        extra = []
        for _ in range(rng.randint(0, CLI_MAX_TREE_EDGES - len(edges))):
            u = rng.randrange(n + len(extra))
            w = n + len(extra)
            label = rng.choice(LETTERS)
            extra.append((label, u, w) if rng.random() < 0.5 else (label, w, u))
        target = relabel(rng, (n + len(extra), start, end, edges + extra))
        exit_code = 0
    else:
        while True:
            target = random_tree(rng, rng.randint(2, CLI_MAX_TREE_EDGES))
            if certified_no_morphism(positions_of_tree(source), positions_of_tree(target)):
                break
        exit_code = 1
    return [{"argv": ["morph", tree_json(source), tree_json(target)], "exit": exit_code}]


def _cli_prune(rng: Random, group: int) -> list[dict]:
    tree = random_tree(rng, rng.randint(2, CLI_MAX_TREE_EDGES - 1))
    n, start, end, edges = tree
    first = tree
    labels = sorted({label for label, s, _ in edges if s == start})
    if labels:
        # A new leaf at the start folds onto a like-labelled edge there, so
        # both trees denote the same element and prune to the same tree.
        first = (n + 1, start, end, edges + [(rng.choice(labels), start, n)])
    return [
        {"argv": ["prune", tree_json(t)], "exit": 0, "group": group}
        for t in (first, relabel(rng, tree))
    ]


def cli_small(seed: int, count: int) -> list[dict]:
    """`cli.main(argv)` calls: a seeded mix of commands on small inputs.

    Every query carries its expected exit code; nf and prune queries come in
    pairs (a formula and its rewrite, a tree and a relabelling) whose outputs
    must agree.
    """
    rng = Random(seed)
    kinds = [k for k, weight in CLI_MIX for _ in range(weight)]
    queries = []
    group = 0
    while len(queries) < count:
        kind = rng.choice(kinds)
        if kind == "eq":
            made = _cli_eq(rng)
        elif kind == "nf":
            made = _cli_nf(rng, group)
        elif kind == "check-identity":
            made = _cli_identity(rng)
        elif kind == "morph":
            made = _cli_morph(rng)
        elif kind == "prune":
            made = _cli_prune(rng, group)
        else:
            made = [{"argv": list(rng.choice(MALFORMED)), "exit": 2, "stdout": ""}]
        group += 1
        for query in made:
            query["kind"] = kind
            query["edges"] = sum(
                len(tree_from_json(arg)[3]) if arg.startswith("{") else edge_count(arg)
                for arg in query["argv"][1:]
            )
        queries.extend(made)
    return queries[:count]


WORKLOADS = {"eq-large": eq_large, "cli-small": cli_small}


def main(argv: list[str]) -> int:
    """``inputs.py WORKLOAD SEED COUNT``: the queries as JSON lines on stdout."""
    workload, seed, count = argv[0], int(argv[1]), int(argv[2])
    for query in WORKLOADS[workload](seed, count):
        sys.stdout.write(json.dumps(query, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
