from __future__ import annotations

import contextlib
import io
import json
import os
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adequate import cli, render, to_json
from adequate.cli import main
from adequate.generate import random_tree
from strategies import AB, formulas


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_base(capsys):
    code, out, err = run(capsys, "eval", "a")
    assert code == 0 and err == ""
    assert out.strip() == (
        '{"alphabet":"ab","n":2,"start":0,"end":1,"edges":[{"l":"a","s":0,"t":1}]}'
    )


def test_eval_branching(capsys):
    code, out, _ = run(capsys, "eval", "(a)+a")
    assert code == 0
    assert out.strip() == (
        '{"alphabet":"ab","n":3,"start":0,"end":2,'
        '"edges":[{"l":"a","s":0,"t":1},{"l":"a","s":0,"t":2}]}'
    )


def test_eval_parse_error(capsys):
    code, out, err = run(capsys, "eval", "(a")
    assert code == 2 and out == ""
    assert err.strip() == "UnbalancedParenthesis at offset 2"


def test_dot_labels_are_escaped(capsys, tmp_path):
    path = tmp_path / "x.dot"
    code, _, err = run(capsys, "--alphabet", 'a"\\', "eval", 'a"\\', "--dot", str(path))
    assert code == 0 and err == ""
    lines = path.read_text(encoding="utf-8").splitlines()
    assert '  1 -> 2 [label="\\""];' in lines
    assert '  2 -> 3 [label="\\\\"];' in lines


def test_dot_path_that_cannot_be_written_prints_nothing(capsys, tmp_path):
    path = str(tmp_path / "missing" / "x.dot")
    for argv in (("eval", "a", "--dot", path), ("prune", "(a)+a", "--dot", path)):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "x.dot" in err


def test_prune_formula_and_json(capsys):
    code, out, _ = run(capsys, "prune", "(a)+a")
    assert code == 0
    assert out.strip() == (
        '{"alphabet":"ab","n":2,"start":0,"end":1,"edges":[{"l":"a","s":0,"t":1}]}'
    )
    base_json = out.strip()
    code, out, _ = run(capsys, "prune", base_json)
    assert code == 0 and out.strip() == base_json


def test_prune_malformed_json(capsys):
    code, _, err = run(capsys, "prune", '{"alphabet":"ab"}')
    assert code == 2 and err
    edge = '{"l":"a","s":0,"t":1}'
    for text in (
        '{"alphabet":"ab","n":2,"start":0,"end":1,"edges":[{"l":"a","s":0,"t":1,"l":"b"}]}',
        '{"alphabet":"ab","n":2,"start":0,"end":1,"end":1,"edges":[' + edge + "]}",
        '{"alphabet":"ab","n":2,"start":0,"end":1,"edges":[' + edge + '],"x":1}',
        '{"alphabet":"ab","n":2,"start":0,"end":1,"edges":[{"l":"a","s":0,"t":1,"x":1}]}',
        '{"alphabet":"ab","n":1,"start":0,"end":0,"edges":""}',
        '{"alphabet":"ab","n":1,"start":0,"end":0,"edges":{}}',
    ):
        code, out, err = run(capsys, "prune", text)
        assert code == 2 and out == ""
        assert err.startswith("malformed tree JSON: ") and len(err.splitlines()) == 1


def test_nf(capsys):
    code, out, _ = run(capsys, "nf", "(b)+(a)+")
    assert code == 0 and out.strip() == "(a)+(b)+"


def test_eq_exit_codes(capsys):
    alphabet = ("--alphabet", "xy")
    assert run(capsys, *alphabet, "eq", "(x)+x", "x")[0] == 0
    assert run(capsys, *alphabet, "eq", "x", "y")[0] == 1
    assert run(capsys, "eq", "(a", "a")[0] == 2


def test_eq_output_words(capsys):
    _, out, _ = run(capsys, "--alphabet", "xy", "eq", "(x)+x", "x")
    assert out.strip() == "equal"


def test_morph(capsys):
    code, out, _ = run(capsys, "morph", "(a)+a", "a")
    assert code == 0
    assert json.loads(out) == {"exists": True, "map": [0, 1, 1]}
    code, out, _ = run(capsys, "morph", "a", "(a)+")
    assert code == 1
    assert json.loads(out) == {"exists": False, "map": None}


def test_json_operands_ignore_the_mode_flags(capsys):
    tree = to_json(random_tree(Random(77), 12, AB))
    other = to_json(random_tree(Random(78), 5, AB))
    flags = ("--mode", "left", "--semigroup")
    for argv in (("prune", tree), ("morph", other, tree), ("morph", tree, tree)):
        plain = run(capsys, *argv)
        assert plain[0] in (0, 1) and plain[1]
        assert run(capsys, *flags, *argv) == plain
        assert run(capsys, *flags, "--swap-sided-ops", *argv) == plain
    # The same flags do check a formula operand.
    assert run(capsys, *flags, "prune", "(a)+")[0] == 2


def test_check_identity(capsys):
    assert run(capsys, "check-identity", "(xy)+", "(x(y)+)+")[0] == 0
    assert run(capsys, "check-identity", "x", "y")[0] == 1


def test_check_identity_respects_mode(capsys):
    code, _, err = run(capsys, "--mode", "left", "check-identity", "(x)+x", "x")
    assert code == 2 and "OpNotInSignature" in err


def test_gen_deterministic_and_valid(capsys):
    code, out1, _ = run(capsys, "--seed", "41", "gen", "--edges", "30")
    assert code == 0
    _, out2, _ = run(capsys, "--seed", "41", "gen", "--edges", "30")
    assert out1 == out2
    _, out3, _ = run(capsys, "--seed", "42", "gen", "--edges", "30")
    assert out1 != out3
    parsed = json.loads(out1)
    assert parsed["n"] == 31 and len(parsed["edges"]) == 30


def test_gen_trivial(capsys):
    _, out, _ = run(capsys, "--seed", "1", "gen", "--edges", "0")
    assert json.loads(out) == {"alphabet": "ab", "n": 1, "start": 0, "end": 0, "edges": []}


def test_dot_output(capsys, tmp_path):
    dot_file = tmp_path / "tree.dot"
    code, _, _ = run(capsys, "eval", "(a)+a", "--dot", str(dot_file))
    assert code == 0
    dot = dot_file.read_text()
    assert dot.startswith("digraph")
    assert "0 [shape=diamond];" in dot and "2 [shape=doublecircle];" in dot


def test_file_reference(capsys, tmp_path):
    src = tmp_path / "formula.txt"
    src.write_text("(b)+(a)+")
    code, out, _ = run(capsys, "nf", f"@{src}")
    assert code == 0 and out.strip() == "(a)+(b)+"


def test_bench_format_and_reps_guard(capsys):
    code, out, _ = run(capsys, "bench", "--sizes", "8,16", "--reps", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "size,eq_mean_s,prune_mean_s"
    assert len(lines) == 4 and lines[-1].startswith("slope,")
    assert run(capsys, "bench", "--reps", "0")[0] == 2
    assert run(capsys, "bench", "--sizes", "")[0] == 2


def test_seed_guard(capsys):
    assert run(capsys, "--seed", "-1", "gen", "--edges", "1")[0] == 2
    assert run(capsys, "--seed", str(2**64), "gen", "--edges", "1")[0] == 2


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "morphism-oracle" in out and "0 disagreements" in out
    assert "pruning-oracle" in out
    assert "identity-suite" in out and "0 failures" in out


def test_console_entry_point():
    import subprocess
    import sys

    import adequate

    # The child finds the package where this process found it, so the test
    # also runs where only pytest's ``pythonpath`` setting puts it on the path.
    src = os.path.dirname(os.path.dirname(adequate.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "adequate.cli", "nf", "(b)+(a)+"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "(a)+(b)+"


def test_deeply_nested_json_exits_2(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text('{"a":' * 100_000 + "1" + "}" * 100_000)
    code, out, err = run(capsys, "prune", f"@{deep}")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_memory_error_exits_2(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "normal_form", exhausted)
    code, out, err = run(capsys, "nf", "a")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1


_KEYS = ["alphabet", "n", "start", "end", "edges", "l", "s", "t"]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text("ab c", max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=4),
    max_leaves=6,
)
_TREE_JSON = st.builds(
    lambda seed, edges: to_json(random_tree(Random(seed), edges, AB)),
    st.integers(0, 2**32),
    st.integers(0, 30),
)


def _mutated(text, pos, cut, insert):
    pos = 1 + pos % len(text)
    return text[:pos] + insert + text[pos + cut :]


_OPERAND_TEXT = st.one_of(
    formulas().map(render),
    st.text("abcx()+* \n", max_size=30),
    _TREE_JSON,
    st.builds(
        _mutated,
        _TREE_JSON,
        st.integers(0, 10**4),
        st.integers(0, 4),
        st.text('{}[]":,-.0123456789abltrue', max_size=3),
    ),
    st.dictionaries(st.sampled_from(_KEYS), _JSON_VALUES, max_size=6).map(json.dumps),
)
_FLAGS = [
    ["--alphabet", "abc"],
    ["--alphabet", "xy"],
    ["--mode", "left"],
    ["--mode", "right"],
    ["--semigroup"],
    ["--swap-sided-ops"],
]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


_ARGV_PARTS = dict(
    flags=st.lists(st.sampled_from(_FLAGS), max_size=3),
    command=st.sampled_from([("eq", 2), ("nf", 1), ("prune", 1), ("morph", 2)]),
    operands=st.lists(st.tuples(_OPERAND_TEXT, st.booleans()), min_size=2, max_size=2),
)


def _fuzzed_argv(fuzz_dir, flags, command, operands):
    # Operand texts are fuzzed, inline or as @file contents; command words
    # and flags stay valid, since argparse's usage errors take two lines.
    name, arity = command
    argv = [arg for flag in flags for arg in flag] + [name]
    for k, (text, as_file) in enumerate(operands[:arity]):
        if as_file or text.startswith(("-", "@")):
            path = os.path.join(fuzz_dir, f"operand{k}")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            text = f"@{path}"
        argv.append(text)
    return argv


@settings(max_examples=200)
@given(**_ARGV_PARTS)
def test_main_is_total(fuzz_dir, flags, command, operands):
    argv = _fuzzed_argv(fuzz_dir, flags, command, operands)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    diagnostic = err.getvalue()
    assert code in (0, 1, 2)
    assert len(diagnostic.splitlines()) <= 1
    assert "Traceback" not in diagnostic


def _captured(call, argv):
    # Exit code (argparse's included), stdout and stderr of call(argv).
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _full_parser_only(argv):
    raise cli._Fallback


def _assert_lean_path_changes_nothing(monkeypatch, argv):
    # main on the lean path against main on build_parser() alone, and where
    # the lean parse succeeds, its Namespace against the full parser's.
    lean = _captured(main, argv)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parse_lean", _full_parser_only)
        full = _captured(main, argv)
    assert lean == full, argv
    parsed = _captured(cli.build_parser().parse_args, argv)
    try:
        namespace = _captured(cli._parse_lean, argv)
    except cli._Fallback:
        return
    assert namespace == parsed, argv


@settings(max_examples=100)
@given(**_ARGV_PARTS)
def test_lean_parser_matches_full_parser_on_fuzzed_argv(fuzz_dir, flags, command, operands):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_lean_path_changes_nothing(
            monkeypatch, _fuzzed_argv(fuzz_dir, flags, command, operands)
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["--alphabet", "xy", "--mode", "left", "--semigroup", "eq", "x", "x"],
        ["--swap-sided-ops", "--mode", "right", "nf", "(x)*x"],
        ["--alphabet", "eq", "nf", "e"],
        ["--alph", "xy", "eq", "x", "y"],
        ["--mode=left", "check-identity", "(x)+x", "x"],
        ["--seed=5", "gen", "--edges", "3"],
        ["--seed", "-1", "gen", "--edges", "1"],
        ["--seed", "x", "gen", "--edges", "1"],
        ["--mode", "up", "eq", "a", "a"],
        ["--", "eq", "a", "b"],
        ["eq", "--", "a", "b"],
        ["frob", "a"],
        [],
        ["--semigroup"],
        ["-h"],
        ["--help"],
        ["--he"],
        ["eq", "-h"],
        ["gen", "--help"],
        ["selftest", "--he"],
        ["--alphabet", "xy", "bench", "-h"],
        ["--edges", "3", "gen"],
        ["--dot", "x.dot", "eval", "a"],
        ["eq", "--alphabet", "xy", "x", "x"],
        ["eq", "a"],
        ["eq", "a", "b", "c"],
        ["gen", "--edges", "x"],
        ["--s", "eq", "a", "a"],
        ["--alphabet"],
        ["prune", "(a)+a"],
        ["morph", "(a)+a", "a"],
        ["eval", "(a"],
    ],
)
def test_lean_parser_matches_full_parser(monkeypatch, argv):
    _assert_lean_path_changes_nothing(monkeypatch, argv)
