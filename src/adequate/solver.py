"""Top-level decision procedures for the free adequate varieties.

Two formulas denote the same element exactly when their evaluated trees map
into each other; equivalently, when their normal forms coincide.  Identity
checking over a variety reduces to the word problem in the free object on
the occurring variables, so the same machinery answers both questions.
Each raises, for a formula that does not fit its mode, the error that
:func:`parse` raises for the formula's text in that mode, offset included.
The modes and that check are the parser's: ``Mode``, ``Sidedness``,
``DEFAULT_MODE`` and ``ensure_admissible`` are defined in
:mod:`adequate.formula` and re-exported here.
"""

from __future__ import annotations

from .canonical import canonical_formula
from .errors import AlphabetMismatch
from .formula import DEFAULT_MODE, Mode, Sidedness, ensure_admissible  # re-exported
from .formula import Alphabet, Formula, _first_occurrences, parse, render
from .homomorphism import exists_morphism
from .pruning import prune
from .tree import evaluate


def equal(f1: Formula, f2: Formula, mode: Mode = DEFAULT_MODE) -> bool:
    """Decide the word problem: do the formulas denote the same element?"""
    ensure_admissible(f1, mode)
    ensure_admissible(f2, mode)
    if f1.alphabet != f2.alphabet:
        raise AlphabetMismatch("formulas are over different alphabets")
    x = evaluate(f1)
    y = evaluate(f2)
    # A non-empty formula always evaluates with at least one edge, so
    # semigroup modes never see the identity element here.
    if mode.semigroup and not (x.edges and y.edges):
        raise RuntimeError("a semigroup-mode formula evaluated to the identity element")
    return exists_morphism(x, y) and exists_morphism(y, x)


def normal_form(formula: Formula, mode: Mode = DEFAULT_MODE) -> Formula:
    """The canonical formula of the pruned evaluation; a complete invariant.

    Two admissible formulas are equal exactly when their normal forms render
    to the same text.
    """
    ensure_admissible(formula, mode)
    return canonical_formula(prune(evaluate(formula)).tree)


def check_identity(lhs: Formula, rhs: Formula, mode: Mode = DEFAULT_MODE) -> bool:
    """Does lhs = rhs hold in every algebra of the mode's variety?

    Letters are read as identity variables; the check is the word problem in
    the free object over the variables that actually occur.  A generator
    that occurs in neither side adds no edge to either tree, so formulas
    over one alphabet go to :func:`equal` as they are, and raise its
    errors.  Formulas over two alphabets are parsed again over the letters
    that occur in them.
    """
    if lhs.alphabet == rhs.alphabet:
        return equal(lhs, rhs, mode)
    lhs_text, rhs_text = render(lhs), render(rhs)
    alphabet = _identity_alphabet(lhs_text, rhs_text)
    return equal(parse(lhs_text, alphabet, mode), parse(rhs_text, alphabet, mode), mode)


def _identity_alphabet(*texts: str) -> Alphabet:
    """The generators occurring in the texts, in first-occurrence order.

    Texts that name no generator get the alphabet ``("x",)``: their sides
    are idempotent-only words on no variables.
    """
    return Alphabet(_first_occurrences("".join(texts)) or ("x",))


def is_idempotent(formula: Formula, mode: Mode = DEFAULT_MODE) -> bool:
    """True iff the formula squares to itself: its tree's basepoints coincide.

    x² = x exactly when x's pruned tree has an empty trunk, and pruning
    deletes branches without moving or merging a basepoint; linear time.
    """
    ensure_admissible(formula, mode)
    tree = evaluate(formula)
    return tree.start == tree.end


# Identities that hold in every two-sided adequate semigroup, and words that
# are not identities, both as rendered formula pairs over variables x, y.
# Test suites re-confirm each entry against the brute-force oracles before
# trusting it.
KNOWN_IDENTITIES: tuple[tuple[str, str], ...] = (
    ("(x)+x", "x"),
    ("x(x)*", "x"),
    ("((x)+)+", "(x)+"),
    ("((x)*)*", "(x)*"),
    ("(x)+(y)+", "(y)+(x)+"),
    ("(x)*(y)*", "(y)*(x)*"),
    ("((x)+)*", "(x)+"),
    ("((x)*)+", "(x)*"),
    ("(xy)+", "(x(y)+)+"),
    ("(xy)*", "((x)*y)*"),
    ("((x)+y)+", "(x)+(y)+"),
    ("(x(y)*)*", "(x)*(y)*"),
)

KNOWN_NON_IDENTITIES: tuple[tuple[str, str], ...] = (
    ("x", "(x)+(x)+"),
    ("(x)+", "(x)*"),
    ("xy", "yx"),
    ("(xy)+", "(x)+(y)+"),
    ("(x(y)*)*", "(x)*"),
)
