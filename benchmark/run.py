"""Benchmark of `adequate`: one workload, one seed, one closed-loop run.

    python3 benchmark/run.py --workload eq-large --seed 1 --seconds 35 --trace 0

One client in one process sends each query only after the previous one has
returned.  Inputs come from ``inputs.py`` in a child process, seeded by
``--seed``, each with a certified answer, and are read from a file one at a
time; each answer is checked as soon as its timed call returns.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it records
the context (Python version, core count, git revision, seed, sample counts
and why the workload was chosen).

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs a fixed
number of queries, each once untraced and once with spans around the calls
into each layer (``spans.py``), checks that both give the same answer,
reports per-layer metrics and the tracing overhead, and adds a size ladder
of per-layer log-log slopes.  The spans are written once, at the end, to
``benchmark/out/``.

The exit code is 0 when every answer is right, 1 when one is wrong, and 2,
without a result, when the benchmark cannot run (for instance without
``src/adequate``, or when the warm-up query already gets a wrong answer).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from random import Random

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)

import inputs  # noqa: E402
import setup_child  # noqa: E402
import spans  # noqa: E402

# Queries per second of the seed code, to size the input pool (with room to
# spare) and the traced run (each traced query also runs once untraced).
EXPECTED_RATE = {"eq-large": 7.0, "cli-small": 600.0}
POOL_MARGIN = 1.5
TRACE_SHARE = 0.3
SETUP_SAMPLES = 32
CHILD_TIMEOUT_S = 150


def cannot_run(message: str):
    print(f"cannot run: {message}", file=sys.stderr)
    sys.exit(2)


def load_library():
    if not os.path.isfile(os.path.join(SRC, "adequate", "__init__.py")):
        cannot_run(f"no library at {os.path.relpath(SRC)}/adequate")
    return setup_child.load(SRC)


def run_child(script: str, *args: str, stdout=subprocess.PIPE) -> str | None:
    """Run a helper script of the benchmark to completion; its stdout."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, script), *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        cannot_run(f"{script} failed: {done.stderr.strip()}")
    return done.stdout


def probe_setup(workload: str) -> float:
    """Set-up time in a fresh interpreter: import, alphabets, one warm-up query."""
    return float(run_child("setup_child.py", SRC, workload))


class Pool:
    """The inputs, one JSON line each in a file, read one at a time, wrapping."""

    def __init__(self, fh, size: int):
        self.fh = fh
        self.size = size

    def next(self) -> dict:
        line = self.fh.readline()
        if not line:
            self.fh.seek(0)
            line = self.fh.readline()
        return json.loads(line)


@contextlib.contextmanager
def input_pool(workload: str, seed: int, count: int):
    """Inputs generated by a child process into a file that is removed after."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"pool-{workload}-{seed}-{os.getpid()}.jsonl")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            run_child("inputs.py", workload, str(seed), str(count), stdout=fh)
        with open(path, encoding="utf-8") as fh:
            yield Pool(fh, count)
    finally:
        if os.path.exists(path):
            os.remove(path)


class Client:
    """Sends one query to the library and returns its raw answer."""

    def __init__(self, lib, workload: str):
        self.lib = lib
        self.ab = lib.alphabets["ab"]
        self.send = {"eq-large": self.eq, "cli-small": self.cli}[workload]

    def eq(self, query):
        parse = self.lib.formula.parse
        first, second = query["args"]
        return self.lib.solver.equal(parse(first, self.ab), parse(second, self.ab))

    def cli(self, query):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.lib.cli.main(list(query["argv"]))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()


def timed(client: Client, query):
    """(answer, seconds); an exception counts as a failed query."""
    started = time.perf_counter()
    try:
        answer = client.send(query)
    except Exception as exc:  # the closed loop keeps going; the query fails
        answer = ("raised", f"{type(exc).__name__}: {exc}")
    return answer, time.perf_counter() - started


# --- answer checks -------------------------------------------------------


class Checker:
    """Checks each answer as it arrives, outside the timed call.

    It keeps only the indices of wrong answers and, until its partner
    arrives, the output of the first query of an nf or prune pair: the two
    outputs of a pair must be the same.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.first_of_pair: dict[int, str] = {}
        self.failed: list[int] = []

    def __call__(self, i: int, query: dict, answer) -> None:
        try:
            ok, output = _answer_ok(self.workload, query, answer)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError):
            ok, output = False, None  # output too malformed to check
        if ok and "group" in query:
            first = self.first_of_pair.pop(query["group"], None)
            if first is None:
                self.first_of_pair[query["group"]] = output
            else:
                ok = output == first
        if not ok:
            self.failed.append(i)


def _answer_ok(workload: str, query, answer) -> tuple[bool, str | None]:
    """Whether the answer is right, and the output its pair partner must match."""
    if workload == "eq-large":
        return answer is query["answer"], None
    code, stdout = answer
    if code != query["exit"]:
        return False, None
    if "stdout" in query:
        return stdout.strip() == query["stdout"] and stdout.count("\n") <= 1, None
    kind = query["kind"]
    if kind == "nf":
        output = stdout.strip()
        return inputs.positions_of_text(output) == inputs.positions_of_text(query["argv"][1]), output
    obj = json.loads(stdout)
    if kind == "morph":
        if query["exit"] == 1:
            return obj == {"exists": False, "map": None}, None
        source, target = (inputs.tree_from_json(arg) for arg in query["argv"][1:])
        return obj["exists"] is True and inputs.verify_witness(source, target, obj["map"]), None
    pruned, given = inputs.tree_from_json(stdout), inputs.tree_from_json(query["argv"][1])
    ok = (
        len(pruned[3]) <= len(given[3])
        and pruned[0] == len(pruned[3]) + 1
        and inputs.positions_of_tree(pruned) == inputs.positions_of_tree(given)
    )
    return ok, inputs.tree_text(pruned, canonical=True)


# --- statistics ----------------------------------------------------------


def percentile(values: list[float], q: float) -> tuple[float | None, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    if not values:
        return None, 0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def git_revision() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def context(args, **extra) -> dict:
    return {
        "workload": args.workload,
        "why": args.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "client": "closed loop, 1 client, 1 process",
        **extra,
    }


# --- runs ----------------------------------------------------------------


def warmed_up_client(args, lib) -> Client:
    if not setup_child.warm_up(args.workload, lib):
        cannot_run("the warm-up query gave a wrong answer")
    return Client(lib, args.workload)


def run_untraced(args, lib, pool):
    """The closed loop, for ``--seconds`` of time spent in the library's calls.

    Decoding the next query, checking its answer and the set-up probes run
    between the timed calls and count neither in latency nor in throughput.
    """
    client = warmed_up_client(args, lib)
    checker = Checker(args.workload)
    latencies, equal_times, unequal_times, setup = [], [], [], []
    probe_every = args.seconds / SETUP_SAMPLES
    busy = 0.0
    edges = 0
    started = time.perf_counter()
    while busy < args.seconds:
        if busy >= len(setup) * probe_every:
            setup.append(probe_setup(args.workload))
        query = pool.next()
        answer, seconds = timed(client, query)
        checker(len(latencies), query, answer)
        latencies.append(seconds)
        busy += seconds
        edges += query["edges"]
        if query["kind"] == "eq":
            (equal_times if query["answer"] else unequal_times).append(seconds)
    while len(setup) < SETUP_SAMPLES:
        setup.append(probe_setup(args.workload))
    wall = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    p50, _ = percentile(latencies, 0.5)
    p90, beyond_p90 = percentile(latencies, 0.9)
    metrics = {
        "latency_p50_s": p50,
        "latency_p90_s": p90,
        "queries_per_s": len(latencies) / busy,
        "edges_per_s": edges / busy,
        "equal_p50_s": percentile(equal_times, 0.5)[0],
        "unequal_p50_s": percentile(unequal_times, 0.5)[0],
        "peak_rss_mb": peak_rss_mb,
        "setup_s": min(setup),
    }
    failed = checker.failed
    info = context(
        args,
        samples={
            "latency": len(latencies),
            "beyond_p90": beyond_p90,
            "equal": len(equal_times),
            "unequal": len(unequal_times),
            "setup": len(setup),
        },
        failed_ratio=len(failed) / len(latencies),
        failed_queries=failed[:20],
        pool=pool.size,
        pool_passes=len(latencies) / pool.size,
        busy_s=busy,
        loop_s=wall,
        setup_samples_s=setup,
    )
    return metrics, info, len(latencies), len(failed)


def run_traced(args, lib, pool, ladder_texts):
    client = warmed_up_client(args, lib)
    tracer = spans.Tracer()
    modules = {name: getattr(lib, name) for name in ("formula", "solver", "canonical", "tree", "cli")}
    checkers = (Checker(args.workload), Checker(args.workload))  # untraced, traced
    differ = []
    seconds_in = [0.0, 0.0]
    queries = 0
    started = time.perf_counter()
    for i in range(trace_count(args)):
        if time.perf_counter() - started > 3 * args.seconds:
            break
        query = pool.next()
        answers = [None, None]
        for traced_turn in (i % 2 == 1, i % 2 == 0):  # alternate which goes first
            if traced_turn:
                tracer.query = i
                tracer.install(modules)
            try:
                answer, seconds = timed(client, query)
            finally:
                tracer.uninstall()
            answers[traced_turn] = answer
            seconds_in[traced_turn] += seconds
            checkers[traced_turn](i, query, answer)
        if answers[0] != answers[1]:
            differ.append(i)
        queries += 1
    failed = sorted(set(checkers[0].failed) | set(checkers[1].failed) | set(differ))

    metrics = spans.layer_metrics(tracer, queries)
    metrics["trace.overhead_ratio"] = seconds_in[1] / seconds_in[0]
    slopes, ladder = spans.size_ladder(lib, ladder_texts)
    metrics.update(slopes)

    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "fields": ["name", "start_s", "end_s", "parent", "query", "count"],
                "spans": tracer.dump(),
                "self_s": tracer.self_times(),
            },
            fh,
            separators=(",", ":"),
        )
    info = context(
        args,
        samples={"traced_queries": queries, "spans": len(tracer.spans)},
        failed_ratio=len(failed) / max(queries, 1),
        failed_queries=failed[:20],
        ladder=ladder,
        spans_file=os.path.relpath(trace_path, ROOT),
    )
    return metrics, info, queries, len(failed)


def trace_count(args) -> int:
    return max(4, math.ceil(args.seconds * EXPECTED_RATE[args.workload] * TRACE_SHARE))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    parser.add_argument("--workload", required=True, choices=sorted(why))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    args.why = why[args.workload]

    lib = load_library()
    if args.trace:
        count = trace_count(args)
    else:
        count = math.ceil(args.seconds * EXPECTED_RATE[args.workload] * POOL_MARGIN)
    with input_pool(args.workload, args.seed, count) as pool:
        if args.trace:
            ladder_texts = {
                edges: inputs.tree_text(inputs.random_tree(Random(args.seed * 7919 + edges), edges))
                for edges in spans.LADDER_EDGES
            }
            metrics, info, attempted, failed = run_traced(args, lib, pool, ladder_texts)
        else:
            metrics, info, attempted, failed = run_untraced(args, lib, pool)

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"context": info}, separators=(",", ":")))
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result, separators=(",", ":")))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
