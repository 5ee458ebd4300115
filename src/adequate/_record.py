"""Value classes with dataclass behaviour but none of its import cost.

Importing ``dataclasses`` loads ``inspect`` and with it ``ast``, ``dis`` and
``tokenize``, and each ``@dataclass`` compiles its methods when the class is
created.  The decision path's classes instead derive from :class:`Record`,
which reads the field names from ``__match_args__``, and write their fields
in an explicit ``__init__``.
"""

from __future__ import annotations


class Record:
    """Field-wise ``==``, ``hash`` and ``repr``, as ``@dataclass`` gives them.

    ``__match_args__`` names the fields in order.  Instances equal only
    instances of the same class; the hash and the ``repr`` text are those of
    the dataclass with the same fields.
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


class Frozen(Record):
    """A record whose attributes cannot be set or deleted.

    ``__init__`` fills ``self.__dict__`` directly; assignment and deletion
    raise ``dataclasses.FrozenInstanceError``, as on a frozen dataclass.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise _frozen(f"cannot delete field {name!r}")


def _frozen(message: str) -> AttributeError:
    from dataclasses import FrozenInstanceError

    return FrozenInstanceError(message)
