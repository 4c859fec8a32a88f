"""Record: the base of the package's value classes that check what they are built from.

A subclass names its fields by annotating them in its class body, in order, and sets them
in its own __init__ once its checks pass (vars(self).update). That __init__ is the only way
to build one: there is no _make or _replace, and copy and pickle call the class with the
field values. Attributes set in __init__ but not annotated (a kept verdict, a cache) are
state, not fields. Records compare equal when their classes are the same and their fields
are, hash and print by their fields, and refuse any assignment or deletion with
AttributeError. The records that check nothing are typing.NamedTuple classes.

Building this class and its subclasses generates no code, so importing the package stays
cheap: each CLI command is a fresh process and pays that import first.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
