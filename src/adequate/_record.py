"""Value classes with frozen-dataclass behaviour but none of its import cost.

Importing ``dataclasses`` loads ``inspect`` and with it ``ast``, ``dis`` and
``tokenize``, and each ``@dataclass`` compiles its methods when the class is
created.  Every value class instead derives from :class:`Frozen`, which
reads the field names from ``__match_args__``, and writes its fields in an
explicit ``__init__``.
"""

from __future__ import annotations


class Frozen:
    """Field-wise ``==``, ``hash`` and ``repr``, as ``@dataclass(frozen=True)``
    gives them, and attributes that cannot be set or deleted.

    ``__match_args__`` names the fields in order.  Instances equal only
    instances of the same class; the hash and the ``repr`` text are those of
    the dataclass with the same fields.  ``__init__`` fills ``self.__dict__``
    directly; assignment and deletion raise
    ``dataclasses.FrozenInstanceError``, as on a frozen dataclass.

    A pickle or a deep copy holds only the attributes that the class
    annotates, which are what its ``__init__`` stores, so no cached
    property travels with it.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __getstate__(self) -> dict:
        stored = self.__dict__
        return {name: stored[name] for name in self.__class__.__annotations__}

    def __setattr__(self, name: str, value) -> None:
        raise _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise _frozen(f"cannot delete field {name!r}")


def _frozen(message: str) -> AttributeError:
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)
