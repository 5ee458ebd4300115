"""Spans around calls into each layer of `adequate`, and the size ladder.

The traced run patches module attributes of the library in place: a call
that one module makes into another goes through a wrapper that records a
span (name, start, end, parent, query id) in memory.  Only the bindings in
``TRACE_POINTS`` are patched, so some calls stay inside their caller's self
time on purpose: the solver's identity grounding (``parse``/``render`` in
``check_identity``), the re-parse of the canonical word in
``canonical_formula``, ``ensure_admissible``, and the propagation pass that
pruning shares with the morphism test.  No file of the library changes.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from time import perf_counter


def _pairs_scanned(args) -> int:
    # The propagation pass scans, per source edge, the target edges with the
    # same letter; from label histograms this repeats exactly.
    target = Counter(edge[0] for edge in args[1].edges)
    return sum(target[edge[0]] for edge in args[0].edges)


def _count_exists(args, result):
    return _pairs_scanned(args), not result


def _count_extract(args, result):
    return _pairs_scanned(args), result is None


def _count_prune(args, result):
    return args[0].vertex_count, len(result.kept)


def _count_evaluate(args, result):
    return len(result.edges)


def _count_chars(args, result):
    return len(result)


def _count_exit(args, result):
    return result


# Library functions the CLI imports into its own namespace.
_CLI_CALLS = (
    ("parse", "formula.parse", None),
    ("render", "formula.render", None),
    ("evaluate", "tree.evaluate", _count_evaluate),
    ("from_json", "tree.from_json", None),
    ("to_json", "tree.to_json", None),
    ("equal", "solver.equal", None),
    ("normal_form", "solver.normal_form", None),
    ("check_identity", "solver.check_identity", None),
    ("exists_morphism", "homomorphism.exists_morphism", _count_exists),
    ("extract_morphism", "homomorphism.extract_morphism", _count_extract),
    ("prune", "pruning.prune", _count_prune),
)

# (module whose binding is patched, attribute, span name, counter).  A
# counter turns (args, result) into the span's count; it runs after the span
# ends and its time is excluded from the parent's self time.
TRACE_POINTS = (
    # Calls the benchmark itself makes.
    ("formula", "parse", "formula.parse", None),
    ("formula", "render", "formula.render", None),
    ("solver", "equal", "solver.equal", None),
    ("solver", "normal_form", "solver.normal_form", None),
    ("cli", "main", "cli.main", _count_exit),
    # Calls between layers.
    ("solver", "evaluate", "tree.evaluate", _count_evaluate),
    ("solver", "exists_morphism", "homomorphism.exists_morphism", _count_exists),
    ("solver", "prune", "pruning.prune", _count_prune),
    ("canonical", "canonical_word", "canonical.canonical_word", _count_chars),
    ("tree", "_compute_traversal", "tree.traversal", None),
) + tuple(("cli", attr, name, count) for attr, name, count in _CLI_CALLS)


class Tracer:
    """Spans kept in memory; ``query`` tags every span opened under it."""

    def __init__(self):
        # [name, start, end, cover_end, parent index, query id, count]
        self.spans: list[list] = []
        self.query = -1
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn, count=None):
        spans, open_spans = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, 0.0, open_spans[-1] if open_spans else -1, self.query, None]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = span[3] = perf_counter()
                open_spans.pop()
            if count is not None:
                span[6] = count(args, result)
                span[3] = perf_counter()
            return result

        return traced

    def install(self, modules: dict) -> None:
        for module_name, attr, name, count in TRACE_POINTS:
            module = modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        covered = [0.0] * len(self.spans)
        for name, start, end, cover_end, parent, query, count in self.spans:
            if parent >= 0:
                covered[parent] += cover_end - start
        totals: dict[str, float] = defaultdict(float)
        for span, child_time in zip(self.spans, covered):
            totals[span[0]] += span[2] - span[1] - child_time
        return totals

    def dump(self) -> list[list]:
        """Spans with times relative to the first span, for writing out."""
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            [name, round(start - origin, 9), round(end - origin, 9), parent, query, count]
            for name, start, end, _, parent, query, count in self.spans
        ]


def layer_metrics(tracer: Tracer, queries: int) -> dict[str, float]:
    """Per-layer metrics: self times and counts per traced query, and ratios."""
    self_time = tracer.self_times()
    counts: dict[str, list] = defaultdict(list)
    for span in tracer.spans:
        if span[6] is not None:
            counts[span[0]].append(span[6])
    per_query = max(queries, 1)

    def seconds(name: str) -> float:
        return self_time.get(name, 0.0) / per_query

    def per(count: float) -> float:
        return count / per_query

    morphism = counts["homomorphism.exists_morphism"] + counts["homomorphism.extract_morphism"]
    morphism_s = self_time.get("homomorphism.exists_morphism", 0.0) + self_time.get(
        "homomorphism.extract_morphism", 0.0
    )
    pairs = sum(p for p, _ in morphism)
    pruned = counts["pruning.prune"]
    vertices_in = sum(v for v, _ in pruned)
    exits = Counter(counts["cli.main"])
    return {
        "tree.evaluate_s": seconds("tree.evaluate"),
        "tree.edges_evaluated": per(sum(counts["tree.evaluate"])),
        "tree.traversal_s": seconds("tree.traversal"),
        "tree.from_json_s": seconds("tree.from_json"),
        "tree.to_json_s": seconds("tree.to_json"),
        "homomorphism.exists_morphism_s": seconds("homomorphism.exists_morphism"),
        "homomorphism.extract_morphism_s": seconds("homomorphism.extract_morphism"),
        "homomorphism.calls": per(len(morphism)),
        "homomorphism.reject_ratio": sum(1 for _, r in morphism if r) / len(morphism) if morphism else 0.0,
        "homomorphism.pairs_scanned": per(pairs),
        "homomorphism.pairs_per_s": pairs / morphism_s if morphism_s else 0.0,
        "pruning.prune_s": seconds("pruning.prune"),
        "pruning.vertices_in": per(vertices_in),
        "pruning.kept_ratio": sum(k for _, k in pruned) / vertices_in if vertices_in else 0.0,
        "canonical.canonical_word_s": seconds("canonical.canonical_word"),
        "canonical.chars_out": per(sum(counts["canonical.canonical_word"])),
        "formula.parse_s": seconds("formula.parse"),
        "formula.render_s": seconds("formula.render"),
        "solver.self_s": sum(t for name, t in self_time.items() if name.startswith("solver.")) / per_query,
        "cli.self_s": seconds("cli.main"),
        "cli.exit_codes.0": per(exits[0]),
        "cli.exit_codes.1": per(exits[1]),
        "cli.exit_codes.2": per(exits[2]),
    }


LADDER_EDGES = (200, 400, 800, 1600, 3200)
LADDER_REPEATS = 2


def loglog_slope(points: list[tuple[float, float]]) -> float:
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    var = sum((x - mean_x) ** 2 for x in xs)
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / var


def size_ladder(lib, texts: dict[int, str]) -> tuple[dict[str, float], list[dict]]:
    """Best-of-k evaluate, self-morphism and prune times over 200-3200 edges.

    The self-morphism test and pruning both run the full propagation pass;
    the tree's traversal is computed before either is timed.
    """
    ab = lib.alphabets["ab"]
    rows = []
    for edges in LADDER_EDGES:
        formula = lib.formula.parse(texts[edges], ab)
        best = [math.inf, math.inf, math.inf]
        for _ in range(LADDER_REPEATS):
            started = perf_counter()
            tree = lib.tree.evaluate(formula)
            evaluated = perf_counter()
            lib.tree.traversal(tree)
            morph_started = perf_counter()
            lib.homomorphism.exists_morphism(tree, tree)
            morphed = perf_counter()
            lib.pruning.prune(tree)
            pruned = perf_counter()
            for i, t in enumerate((evaluated - started, morphed - morph_started, pruned - morphed)):
                best[i] = min(best[i], t)
        rows.append({"edges": edges, "evaluate_s": best[0], "exists_morphism_s": best[1], "prune_s": best[2]})
    slopes = {
        "tree.evaluate_slope": loglog_slope([(r["edges"], r["evaluate_s"]) for r in rows]),
        "homomorphism.slope": loglog_slope([(r["edges"], r["exists_morphism_s"]) for r in rows]),
        "pruning.slope": loglog_slope([(r["edges"], r["prune_s"]) for r in rows]),
    }
    return slopes, rows
