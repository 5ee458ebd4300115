"""The formula language over a generator alphabet.

A formula is a word over the generators plus the four symbols ``( ) + *``:
a (possibly empty) sequence of factors, each factor either a bare generator
or a parenthesised group followed by a postfix ``+`` or ``*``.  Bare groups
without a trailing operator are rejected so that every abstract formula has
exactly one rendering.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Union

from .errors import (
    AlphabetMismatch,
    BareGroup,
    DanglingUnary,
    EmptyNotAllowed,
    OpNotInSignature,
    UnbalancedParenthesis,
    UnknownSymbol,
)

if TYPE_CHECKING:
    from .solver import Mode

RESERVED = "()+*"


class UnaryOp(Enum):
    PLUS = "+"
    STAR = "*"


@dataclass(frozen=True)
class Alphabet:
    """Ordered generator symbols; the order fixes the canonical word order."""

    letters: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        if not self.letters:
            raise ValueError("alphabet must not be empty")
        seen = set()
        for ch in self.letters:
            if len(ch) != 1 or ch in RESERVED or ch.isspace() or not ch.isprintable():
                raise ValueError(f"invalid generator {ch!r}")
            if ch in seen:
                raise ValueError(f"duplicate generator {ch!r}")
            seen.add(ch)

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
    def _letters(self) -> dict[str, "Letter"]:
        # One shared Letter per generator, so parsing allocates none.
        return {ch: Letter(ch) for ch in self.letters}

    @cached_property
    def _omega_table(self) -> dict[int, str]:
        # Word order: generators in alphabet order, then ( ) + *.
        ranks = {ch: i for i, ch in enumerate(self.letters)}
        for j, ch in enumerate(RESERVED):
            ranks[ch] = len(self.letters) + j
        return str.maketrans({ch: chr(r) for ch, r in ranks.items()})

    def omega_key(self, word: str) -> str:
        """Map a formula word to a string whose natural order is the word order."""
        return word.translate(self._omega_table)


@dataclass(frozen=True)
class Letter:
    letter: str


@dataclass(frozen=True)
class Unary:
    op: UnaryOp
    body: "Formula"


Factor = Union[Letter, Unary]


@dataclass(frozen=True)
class Formula:
    factors: tuple[Factor, ...]
    alphabet: Alphabet


_OPS = {"+": UnaryOp.PLUS, "*": UnaryOp.STAR}


def parse(text: str, alphabet: Alphabet, mode: "Mode | None" = None) -> Formula:
    """Parse formula text; ``mode`` restricts the signature and emptiness.

    Grammar: ``Expr := Factor*``, ``Factor := letter | '(' Expr ')' ('+'|'*')``.
    Whitespace between tokens is ignored.  With no mode, both unary symbols
    are admitted and empty (sub)formulas are legal.

    One pass over the characters.  A group closed by ``)`` is held until its
    operator arrives; only whitespace may come in between.  Letters are the
    alphabet's shared :class:`Letter` instances.
    """
    allowed = frozenset(UnaryOp) if mode is None else mode.allowed_ops()
    allow_empty = mode is None or not mode.semigroup
    letters = alphabet._letters
    top: list[Factor] = []
    outer: list[tuple[list[Factor], int]] = []  # enclosing factor lists, "(" offsets
    closed: list[Factor] | None = None  # a body whose ")" awaits its operator
    closed_at = 0
    for i, ch in enumerate(text):
        if closed is None:
            letter = letters.get(ch)
            if letter is not None:
                top.append(letter)
            elif ch == "(":
                outer.append((top, i))
                top = []
            elif ch == ")":
                if not outer:
                    raise UnbalancedParenthesis(i)
                closed = top
                top, closed_at = outer.pop()
            elif ch.isspace():
                continue
            elif ch in _OPS:
                raise DanglingUnary(i, f"{ch!r} must follow a closing parenthesis")
            else:
                raise UnknownSymbol(i, f"{ch!r}")
        else:
            op = _OPS.get(ch)
            if op is None:
                if ch.isspace():
                    continue
                raise BareGroup(i)
            if op not in allowed:
                raise OpNotInSignature(i, f"{op.value!r} is not in the signature of this mode")
            if not closed and not allow_empty:
                raise EmptyNotAllowed(closed_at, "empty group in semigroup mode")
            top.append(Unary(op, Formula(tuple(closed), alphabet)))
            closed = None
    n = len(text)
    if closed is not None:
        raise BareGroup(n)
    if outer:
        raise UnbalancedParenthesis(n)
    if not top and not allow_empty:
        raise EmptyNotAllowed(0, "empty formula in semigroup mode")
    return Formula(tuple(top), alphabet)


def render(formula: Formula) -> str:
    """Emit the unique whitespace-free text of a formula; inverse of parse."""
    out: list[str] = []
    stack: list[Factor | str] = list(reversed(formula.factors))
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
        elif type(item) is Letter:
            out.append(item.letter)
        else:
            out.append("(")
            stack.append(")" + item.op.value)
            stack.extend(reversed(item.body.factors))
    return "".join(out)


def occurrence_count(formula: Formula) -> int:
    """Number of generator occurrences in the formula."""
    count = 0
    stack: list[Factor] = list(formula.factors)
    while stack:
        item = stack.pop()
        if type(item) is Letter:
            count += 1
        else:
            stack.extend(item.body.factors)
    return count


def occurring_letters(formula: Formula) -> tuple[str, ...]:
    """Distinct generators of the formula, in first-occurrence order."""
    seen: set[str] = set()
    out: list[str] = []
    stack: list[Factor] = list(reversed(formula.factors))
    while stack:
        item = stack.pop()
        if type(item) is Letter:
            if item.letter not in seen:
                seen.add(item.letter)
                out.append(item.letter)
        else:
            stack.extend(reversed(item.body.factors))
    return tuple(out)


def concat(left: Formula, right: Formula) -> Formula:
    if left.alphabet != right.alphabet:
        raise AlphabetMismatch("formulas are over different alphabets")
    return Formula(left.factors + right.factors, left.alphabet)
