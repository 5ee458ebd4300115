"""Top-level decision procedures for the free adequate varieties.

Two formulas denote the same element exactly when their evaluated trees map
into each other; equivalently, when their normal forms coincide.  Identity
checking over a variety reduces to the word problem in the free object on
the occurring variables, so the same machinery answers both questions.
"""

from __future__ import annotations

from enum import Enum

from ._record import Frozen
from .canonical import canonical_formula
from .errors import AlphabetMismatch, EmptyNotAllowed, OpNotInSignature
from .formula import Alphabet, Formula, UnaryOp, _first_occurrences, parse, render
from .homomorphism import exists_morphism
from .pruning import prune
from .tree import evaluate


class Sidedness(Enum):
    LEFT = "left"
    RIGHT = "right"
    TWO_SIDED = "two-sided"


class Mode(Frozen):
    """Variety selector: sidedness and semigroup-versus-monoid.

    The one-sided varieties admit a single unary operation: star on the left
    side and plus on the right.  ``swap_sided_ops`` inverts that pairing in
    case the opposite convention is wanted.  Semigroup modes forbid the
    empty formula, whose value would be the identity element.
    """

    __match_args__ = ("sidedness", "semigroup", "swap_sided_ops")
    sidedness: Sidedness
    semigroup: bool
    swap_sided_ops: bool

    def __init__(self, sidedness=Sidedness.TWO_SIDED, semigroup=False, swap_sided_ops=False):
        self.__dict__.update(sidedness=sidedness, semigroup=semigroup, swap_sided_ops=swap_sided_ops)

    def allowed_ops(self) -> frozenset[UnaryOp]:
        if self.sidedness is Sidedness.TWO_SIDED:
            return frozenset((UnaryOp.PLUS, UnaryOp.STAR))
        star_side = Sidedness.RIGHT if self.swap_sided_ops else Sidedness.LEFT
        return frozenset((UnaryOp.STAR if self.sidedness is star_side else UnaryOp.PLUS,))


DEFAULT_MODE = Mode()


def ensure_admissible(formula: Formula, mode: Mode) -> None:
    """Raise unless the formula fits the mode's signature and emptiness rules.

    Reads the rendered text.  An empty group is ``"()"`` there, and a
    group's operator follows its body, so the rightmost offending group is
    the one a walk of the syntax tree (later factors first, each group
    before its body) reports, and its operator is checked first.
    """
    text = formula._text
    if mode.semigroup and not text:
        raise EmptyNotAllowed(detail="empty formula in semigroup mode")
    empty_at = text.rfind("()") if mode.semigroup else -1
    allowed = mode.allowed_ops()
    for op in UnaryOp:
        if op not in allowed and text.rfind(op.value) > empty_at:
            raise OpNotInSignature(detail=f"{op.value!r} is not in the signature of this mode")
    if empty_at >= 0:
        raise EmptyNotAllowed(detail="empty group in semigroup mode")


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
    the free object over the variables that actually occur.
    """
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
    """True iff the formula squares to itself; basepoints coincide after pruning."""
    ensure_admissible(formula, mode)
    pruned = prune(evaluate(formula)).tree
    return pruned.start == pruned.end


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
