"""The README's examples, run as written.

Each ``$ adequate ...`` line of the CLI examples goes through ``cli.main``
and must print the lines shown under it; ``bench``, whose timings vary, is
skipped.  The library quick start runs line by line, and each result given
in a ``# ...`` comment must be the ``repr`` of that line's value.
"""

from __future__ import annotations

import contextlib
import io
import shlex
from pathlib import Path

import pytest

from adequate import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(heading: str) -> list[str]:
    # The lines of the first fenced block after the line ``heading``.
    lines = README.read_text(encoding="utf-8").splitlines()
    at = lines.index(heading) + 1
    while not lines[at].startswith("```"):
        at += 1
    end = lines.index("```", at + 1)
    return lines[at + 1 : end]


def _cli_examples() -> list[tuple[str, list[str]]]:
    examples: list[tuple[str, list[str]]] = []
    for line in _block("Examples:"):
        if line.startswith("$ "):
            examples.append((line[2:], []))
        else:
            examples[-1][1].append(line)
    return examples


def test_readme_has_the_examples_it_is_tested_on():
    commands = [command for command, _ in _cli_examples()]
    assert len(commands) == 5 and all(c.startswith("adequate ") for c in commands)
    assert sum(" bench " in c for c in commands) == 1
    assert sum("  # " in line for line in _block("## Library quick start")) == 3


_RUN = [(command, expected) for command, expected in _cli_examples() if " bench " not in command]


@pytest.mark.parametrize("command, expected", _RUN, ids=[command for command, _ in _RUN])
def test_cli_example(command, expected):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(shlex.split(command)[1:])
    assert code == 0
    assert out.getvalue().splitlines() == expected


def test_library_quick_start():
    namespace: dict = {}
    for line in _block("## Library quick start"):
        code, _, result = line.partition("  # ")
        if result:
            assert repr(eval(code, namespace)) == result.strip(), line
        else:
            exec(code, namespace)
