"""Set-up probe: one fresh interpreter pays the benchmark's set-up once.

``python3 setup_child.py SRC_DIR WORKLOAD`` times ``import adequate``,
building the alphabets and one small warm-up query, and prints the seconds.
The benchmark runs it at even steps through its timed loop and reports the
fastest as ``setup_s``.
"""

import sys
import time
import types


def warm_up(workload: str, lib) -> bool:
    """One small fixed query of the workload's kind; True when it is right."""
    if workload == "cli-small":
        import contextlib
        import io

        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return lib.cli.main(["eq", "(a)+a(b)*", "a(b)*"]) == 0
    ab = lib.alphabets["ab"]
    parse = lib.formula.parse
    # (u)+u = u with u = (a(b)+)+.
    return lib.solver.equal(parse("(a(b)+)+ab(a)*", ab), parse("((a(b)+)+)+(a(b)+)+ab(a)*", ab))


def load(src: str):
    """Import the library and build the alphabets; returns a namespace."""
    sys.path.insert(0, src)
    import adequate
    from adequate import canonical, cli, formula, homomorphism, pruning, solver, tree

    return types.SimpleNamespace(
        adequate=adequate,
        canonical=canonical,
        cli=cli,
        formula=formula,
        homomorphism=homomorphism,
        pruning=pruning,
        solver=solver,
        tree=tree,
        alphabets={"ab": adequate.Alphabet.from_string("ab")},
    )


if __name__ == "__main__":
    started = time.perf_counter()
    workload = sys.argv[2]
    lib = load(sys.argv[1])
    if not warm_up(workload, lib):
        sys.exit("warm-up query gave a wrong answer")
    print(time.perf_counter() - started)
