"""The formula language over a generator alphabet.

A formula is a word over the generators plus the four symbols ``( ) + *``:
a (possibly empty) sequence of factors, each factor either a bare generator
or a parenthesised group followed by a postfix ``+`` or ``*``.  Bare groups
without a trailing operator are rejected so that every abstract formula has
exactly one rendering.  A parsed formula is kept as that rendering, its
whitespace-free text, and the syntax nodes are built only when read.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from itertools import accumulate
from typing import TYPE_CHECKING, Union

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

if TYPE_CHECKING:
    from .solver import Mode

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
    def _letters(self) -> dict[str, "Letter"]:
        # One shared Letter per generator, so built factors allocate none.
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


class Letter(Frozen):
    __match_args__ = ("letter",)
    letter: str

    def __init__(self, letter):
        self.__dict__.update(letter=letter)


class Unary(Frozen):
    __match_args__ = ("op", "body")
    op: UnaryOp
    body: "Formula"

    def __init__(self, op, body):
        self.__dict__.update(op=op, body=body)


Factor = Union[Letter, Unary]


class _DataclassMetadata:
    """``Formula.__dataclass_fields__`` or ``__dataclass_params__``, on demand.

    ``dataclasses.fields``, ``replace`` and ``is_dataclass`` read these.  The
    first read runs ``dataclass(frozen=True, eq=False)`` over a twin class
    with only the owner's annotated fields and caches both of the twin's
    attributes on the owner, so importing this module loads no
    ``dataclasses``.
    """

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner: type):
        from dataclasses import dataclass

        namespace = {
            "__annotations__": dict(owner.__annotations__),
            "__module__": owner.__module__,
            "__qualname__": owner.__qualname__,
        }
        twin = dataclass(frozen=True, eq=False)(type(owner.__name__, (), namespace))
        for name in ("__dataclass_fields__", "__dataclass_params__"):
            setattr(owner, name, getattr(twin, name))
        return getattr(owner, self.name)


class Formula(Frozen):
    """Equal to another formula when both have the same alphabet and text.

    A parsed formula holds only its whitespace-free text and one built from
    ``factors`` only those; each derives the other once, on first read.
    Formulas are the one public class that ``dataclasses`` still accepts.
    """

    __match_args__ = ("factors", "alphabet")
    factors: tuple[Factor, ...]
    alphabet: Alphabet
    __dataclass_fields__ = _DataclassMetadata()
    __dataclass_params__ = _DataclassMetadata()

    def __init__(self, factors, alphabet):
        self.__dict__.update(factors=factors, alphabet=alphabet)

    def __getattr__(self, name: str):
        state = self.__dict__
        if name == "factors" and "_text" in state:
            value = _build_factors(state["_text"], self.alphabet)
        elif name == "_text" and "factors" in state:
            value = _render_factors(state["factors"])
        else:
            raise AttributeError(name)
        state[name] = value
        return value

    def __eq__(self, other):
        if type(other) is not Formula:
            return NotImplemented
        return self.alphabet == other.alphabet and self._text == other._text

    def __hash__(self) -> int:
        return hash((self.alphabet, self._text))


_OPS = {"+": UnaryOp.PLUS, "*": UnaryOp.STAR}


def parse(text: str, alphabet: Alphabet, mode: "Mode | None" = None) -> Formula:
    """Check formula text; ``mode`` restricts the signature and emptiness.

    Grammar: ``Expr := Factor*``, ``Factor := letter | '(' Expr ')' ('+'|'*')``.
    Whitespace between tokens is ignored.  With no mode, both unary symbols
    are admitted and empty (sub)formulas are legal.

    Builds no syntax nodes: the result keeps the whitespace-free text,
    which is its rendering, and builds ``factors`` only when they are read.
    String operations accept a formula (:func:`_is_formula`); only other
    text is walked character by character, to raise its first error.  In
    that walk a ``)`` waits for its operator; only whitespace may come in
    between.
    """
    # The admitted operator characters, so that a ")" tests a character and
    # hashes no UnaryOp.
    allowed = "+*" if mode is None else "".join(op.value for op in mode.allowed_ops())
    allow_empty = mode is None or not mode.semigroup
    stripped = "".join(text.split())
    if _is_formula(stripped, alphabet, allowed, allow_empty):
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
            elif ch in _OPS:
                raise DanglingUnary(i, f"{ch!r} must follow a closing parenthesis")
            else:
                raise UnknownSymbol(i, f"{ch!r}")
        else:
            if ch not in _OPS:
                if ch.isspace():
                    continue
                raise BareGroup(i)
            if ch not in allowed:
                raise OpNotInSignature(i, f"{ch!r} is not in the signature of this mode")
            if not allow_empty:  # empty if the last non-space before ")" is "("
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
    if not stripped and not allow_empty:
        raise EmptyNotAllowed(0, "empty formula in semigroup mode")
    return _from_text(stripped, alphabet)


# "(" and ")" as the signed bytes +1 and -1.
_DEPTH_STEPS = bytes.maketrans(b"()", b"\x01\xff")


def _is_formula(text: str, alphabet: Alphabet, allowed: str, allow_empty: bool) -> bool:
    """Whether whitespace-free text is a formula, by string operations.

    Its parentheses are all that is left once generators and operators
    are deleted; every ``)`` is followed by an operator and every operator
    follows a ``)``; no prefix closes more groups than it opens, and all
    groups close.  Every formula meets these, and so does the body of
    every group of a text that meets them, so by induction only formulas
    do.  Then the mode: no operator outside ``allowed``, and no empty
    formula or group unless ``allow_empty``.
    """
    parens = text.translate(alphabet._parens_only)
    closes = text.count(")")
    plus, star = text.count("+"), text.count("*")
    return (
        len(parens) == 2 * closes == 2 * text.count("(")
        and closes == text.count(")+") + text.count(")*") == plus + star
        and min(accumulate(memoryview(parens.encode().translate(_DEPTH_STEPS)).cast("b")), default=0) >= 0
        and (not plus or "+" in allowed)
        and (not star or "*" in allowed)
        and (allow_empty or (text != "" and "()" not in text))
    )


def _from_text(text: str, alphabet: Alphabet) -> Formula:
    formula = object.__new__(Formula)
    formula.__dict__.update(_text=text, alphabet=alphabet)
    return formula


def _build_factors(text: str, alphabet: Alphabet) -> tuple[Factor, ...]:
    # The syntax nodes of whitespace-free text that parse accepted.
    letters = alphabet._letters
    top: list[Factor] = []
    outer: list[list[Factor]] = []
    chars = iter(text)
    for ch in chars:
        if ch == "(":
            outer.append(top)
            top = []
        elif ch == ")":
            body = Formula(tuple(top), alphabet)
            top = outer.pop()
            top.append(Unary(_OPS[next(chars)], body))
        else:
            top.append(letters[ch])
    return tuple(top)


def _render_factors(factors: tuple[Factor, ...]) -> str:
    out: list[str] = []
    stack: list[Factor | str] = list(reversed(factors))
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
        elif type(item) is Unary:
            out.append("(")
            stack.append(")" + item.op.value)
            stack.extend(reversed(item.body.factors))
        elif len(item.letter) != 1 or item.letter in RESERVED:
            # No alphabet holds it, so no text could stand for it.
            raise UnknownSymbol(detail=f"{item.letter!r} is not a generator")
        else:
            out.append(item.letter)
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
