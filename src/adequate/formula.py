"""The formula language over a generator alphabet.

A formula is a word over the generators plus the four symbols ``( ) + *``:
a (possibly empty) sequence of factors, each factor either a bare generator
or a parenthesised group followed by a postfix ``+`` or ``*``.  Bare groups
without a trailing operator are rejected so that every abstract formula has
exactly one rendering.  Every formula is kept as that rendering, its
whitespace-free text, and the syntax nodes are built only when read.

A :class:`Mode` names one of the six varieties, and with it which formulas
that variety admits: :func:`parse` checks text against a mode, and
:func:`ensure_admissible` checks a built formula.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from itertools import accumulate
from typing import Union

from ._record import Frozen
from .errors import (
    AlphabetMismatch,
    BareGroup,
    DanglingUnary,
    EmptyNotAllowed,
    OpNotInSignature,
    UnbalancedParenthesis,
    UnknownSymbol,
)

RESERVED = "()+*"


class UnaryOp(Enum):
    PLUS = "+"
    STAR = "*"


class Alphabet(Frozen):
    """Ordered generator symbols; the order fixes the canonical word order."""

    __match_args__ = ("letters",)
    letters: tuple[str, ...]

    def __init__(self, letters):
        letters = tuple(letters)
        if not letters:
            raise ValueError("alphabet must not be empty")
        seen = set()
        for ch in letters:
            if len(ch) != 1 or ch in RESERVED or ch.isspace() or not ch.isprintable():
                raise ValueError(f"invalid generator {ch!r}")
            if ch in seen:
                raise ValueError(f"duplicate generator {ch!r}")
            seen.add(ch)
        self.__dict__.update(letters=letters)

    @classmethod
    def from_string(cls, text: str) -> "Alphabet":
        return cls(tuple(text))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {ch: i for i, ch in enumerate(self.letters)}

    def __contains__(self, ch: str) -> bool:
        return ch in self._index

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return "".join(self.letters)

    def index(self, ch: str) -> int:
        try:
            return self._index[ch]
        except KeyError:
            raise UnknownSymbol(detail=f"{ch!r} is not a generator") from None

    @cached_property
    def _parens_only(self) -> dict[int, None]:
        # Deletes the generators and the operators from formula text.
        return str.maketrans("", "", "".join(self.letters) + "+*")

    @cached_property
    def _word_order(self) -> tuple[str, dict[int, str]]:
        # The word order ranks the generators in alphabet order, then
        # ( ) + *.  Text written with rank r as chr(r) sorts in that order
        # by plain string comparison; the table decodes it.
        ranks = "".join(map(chr, range(len(self.letters) + len(RESERVED))))
        return ranks, str.maketrans(ranks, "".join(self.letters) + RESERVED)


class Unary(Frozen):
    __match_args__ = ("op", "body")
    op: UnaryOp
    body: "Formula"

    def __init__(self, op, body):
        if type(op) is not UnaryOp or type(body) is not Formula:
            raise TypeError(f"a Unary takes a UnaryOp and a Formula, not {op!r} and {body!r}")
        self.__dict__.update(op=op, body=body)


Factor = Union[str, Unary]


class Formula(Frozen):
    """Equal to another formula when both have the same alphabet and text.

    A formula holds only its whitespace-free text, and builds ``factors``
    from it on first read.  ``Formula(factors, alphabet)`` renders the
    factors: a letter factor is its one-character string, a string that is
    not a generator raises ``UnknownSymbol``, and a factor that is neither
    a ``str`` nor a ``Unary`` raises ``TypeError``.  Rebuild a formula with
    other factors as ``Formula(factors, f.alphabet)``.
    """

    __match_args__ = ("factors", "alphabet")
    _text: str
    alphabet: Alphabet

    def __init__(self, factors, alphabet):
        self.__dict__.update(_text=_render_factors(factors, alphabet), alphabet=alphabet)

    @cached_property
    def factors(self) -> tuple[Factor, ...]:
        return _build_factors(self._text, self.alphabet)

    def __eq__(self, other):
        if type(other) is not Formula:
            return NotImplemented
        return self.alphabet == other.alphabet and self._text == other._text

    def __hash__(self) -> int:
        return hash((self.alphabet, self._text))


class Sidedness(Enum):
    LEFT = "left"
    RIGHT = "right"
    TWO_SIDED = "two-sided"


class Mode(Frozen):
    """Variety selector: sidedness and semigroup-versus-monoid.

    The one-sided varieties admit a single unary operation: star on the left
    side and plus on the right.  ``swap_sided_ops`` makes left admit exactly
    what right admits, and the reverse; sidedness reaches the code only
    through :meth:`allowed_ops`, so two-sided modes ignore it.  Semigroup
    modes forbid the empty formula, whose value would be the identity element.
    Fields of any other type raise ``TypeError``.
    """

    __match_args__ = ("sidedness", "semigroup", "swap_sided_ops")
    sidedness: Sidedness
    semigroup: bool
    swap_sided_ops: bool

    def __init__(self, sidedness=Sidedness.TWO_SIDED, semigroup=False, swap_sided_ops=False):
        fields = (sidedness, semigroup, swap_sided_ops)
        if tuple(map(type, fields)) != (Sidedness, bool, bool):
            raise TypeError(f"a Mode takes a Sidedness and two bools, not {fields!r}")
        self.__dict__.update(sidedness=sidedness, semigroup=semigroup, swap_sided_ops=swap_sided_ops)

    def allowed_ops(self) -> frozenset[UnaryOp]:
        if self.sidedness is Sidedness.TWO_SIDED:
            return frozenset((UnaryOp.PLUS, UnaryOp.STAR))
        star_side = Sidedness.RIGHT if self.swap_sided_ops else Sidedness.LEFT
        return frozenset((UnaryOp.STAR if self.sidedness is star_side else UnaryOp.PLUS,))

    @cached_property
    def _op_chars(self) -> str:
        # The admitted operator characters, so that a ")" tests a character
        # and hashes no UnaryOp.  Sorted, so no hash seed reaches the text.
        return "".join(sorted(op.value for op in self.allowed_ops()))


DEFAULT_MODE = Mode()


def parse(text: str, alphabet: Alphabet, mode: Mode | None = None) -> Formula:
    """Check formula text; ``mode`` restricts the signature and emptiness.

    Grammar: ``Expr := Factor*``, ``Factor := letter | '(' Expr ')' ('+'|'*')``.
    Whitespace between tokens is ignored.  With no mode, the mode is
    :data:`DEFAULT_MODE`: both unary symbols are admitted and empty
    (sub)formulas are legal.

    Builds no syntax nodes: the result keeps the whitespace-free text,
    which is its rendering, and builds ``factors`` only when they are read.
    String operations accept a formula (:func:`_is_formula`); only other
    text is walked character by character, to raise its first error.  In
    that walk a ``)`` waits for its operator; only whitespace may come in
    between.
    """
    if mode is None:
        mode = DEFAULT_MODE
    stripped = "".join(text.split())
    if _is_formula(stripped, alphabet) and _admits(stripped, mode):
        return _from_text(stripped, alphabet)
    known = alphabet._index
    depth = 0
    closed = -1  # the offset of a ")" that awaits its operator
    for i, ch in enumerate(text):
        if closed < 0:
            if ch in known:
                continue
            if ch == "(":
                depth += 1
            elif ch == ")":
                if not depth:
                    raise UnbalancedParenthesis(i)
                depth -= 1
                closed = i
            elif ch.isspace():
                continue
            elif ch in "+*":
                raise DanglingUnary(i, f"{ch!r} must follow a closing parenthesis")
            else:
                raise UnknownSymbol(i, f"{ch!r}")
        else:
            if ch not in "+*":
                if ch.isspace():
                    continue
                raise BareGroup(i)
            if ch not in mode._op_chars:
                raise OpNotInSignature(i, f"{ch!r} is not in the signature of this mode")
            if mode.semigroup:  # empty if the last non-space before ")" is "("
                j = closed - 1
                while text[j].isspace():
                    j -= 1
                if text[j] == "(":
                    raise EmptyNotAllowed(j, "empty group in semigroup mode")
            closed = -1
    if closed >= 0:
        raise BareGroup(len(text))
    if depth:
        raise UnbalancedParenthesis(len(text))
    if not stripped and mode.semigroup:
        raise EmptyNotAllowed(0, "empty formula in semigroup mode")
    return _from_text(stripped, alphabet)


# "(" and ")" as the signed bytes +1 and -1.
_DEPTH_STEPS = bytes.maketrans(b"()", b"\x01\xff")


def _is_formula(text: str, alphabet: Alphabet) -> bool:
    """Whether whitespace-free text is a formula, by string operations.

    Its parentheses are all that is left once generators and operators
    are deleted; every ``)`` is followed by an operator and every operator
    follows a ``)``; no prefix closes more groups than it opens, and all
    groups close.  Every formula meets these, and so does the body of
    every group of a text that meets them, so by induction only formulas
    do.
    """
    parens = text.translate(alphabet._parens_only)
    closes = text.count(")")
    return (
        len(parens) == 2 * closes == 2 * text.count("(")
        and closes == text.count(")+") + text.count(")*") == text.count("+") + text.count("*")
        and min(accumulate(memoryview(parens.encode().translate(_DEPTH_STEPS)).cast("b")), default=0) >= 0
    )


def _admits(text: str, mode: Mode) -> bool:
    # Whether formula text fits a mode: no operator the mode does not admit,
    # and in a semigroup mode no empty formula or group.  Where it does not,
    # parse of the text raises its first fault.
    allowed = mode._op_chars
    ops_ok = all(op in allowed or op not in text for op in "+*")
    return ops_ok and not (mode.semigroup and (text == "" or "()" in text))


def ensure_admissible(formula: Formula, mode: Mode) -> None:
    """Raise what ``parse(render(formula), formula.alphabet, mode)`` raises,
    if anything: the first fault in text order, with its offset."""
    text = formula._text
    if not _admits(text, mode):
        parse(text, formula.alphabet, mode)


def _from_text(text: str, alphabet: Alphabet) -> Formula:
    formula = object.__new__(Formula)
    formula.__dict__.update(_text=text, alphabet=alphabet)
    return formula


def _build_factors(text: str, alphabet: Alphabet) -> tuple[Factor, ...]:
    # The top-level syntax nodes of formula text.  Each group's body is the
    # formula of its slice of the text, so no body is rendered again.
    factors: list[Factor] = []
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            if not depth:
                start = i + 1
            depth += 1
        elif ch == ")":
            depth -= 1
            if not depth:
                factors.append(Unary(UnaryOp(text[i + 1]), _from_text(text[start:i], alphabet)))
        elif not depth and ch not in "+*":
            factors.append(ch)
    return tuple(factors)


def _render_factors(factors: tuple[Factor, ...], alphabet: Alphabet) -> str:
    # A body's text was checked when the body was built.  It is checked again
    # only where its alphabet is another, so the outermost alphabet decides.
    known = alphabet._index
    out: list[str] = []
    for item in factors:
        if type(item) is str:
            if item not in known:
                alphabet.index(item)  # raises UnknownSymbol
            out.append(item)
        elif type(item) is Unary:
            body = item.body
            if body.alphabet != alphabet:
                for ch in _first_occurrences(body._text):
                    alphabet.index(ch)  # raises UnknownSymbol
            out.append("(" + body._text + ")" + item.op.value)
        else:
            raise TypeError(f"a formula factor is a str or a Unary, not {item!r}")
    return "".join(out)


def render(formula: Formula) -> str:
    """The unique whitespace-free text of a formula; inverse of parse."""
    return formula._text


def occurrence_count(formula: Formula) -> int:
    """Number of generator occurrences in the formula."""
    # Every group spends three characters: "(", ")" and its operator.
    text = formula._text
    return len(text) - 3 * text.count("(")


_NO_RESERVED = str.maketrans("", "", RESERVED)


def _first_occurrences(text: str) -> tuple[str, ...]:
    # The distinct characters of the text, whitespace and RESERVED left out,
    # in first-occurrence order.  ``str.split()`` splits on exactly the
    # characters that ``str.isspace`` accepts.
    return tuple(dict.fromkeys("".join(text.split()).translate(_NO_RESERVED)))


def occurring_letters(formula: Formula) -> tuple[str, ...]:
    """Distinct generators of the formula, in first-occurrence order."""
    return _first_occurrences(formula._text)


def concat(left: Formula, right: Formula) -> Formula:
    if left.alphabet != right.alphabet:
        raise AlphabetMismatch("formulas are over different alphabets")
    return _from_text(left._text + right._text, left.alphabet)
