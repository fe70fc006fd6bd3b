"""Immutable value records, the base of the package's small result types.

A record class lists its fields in ``__slots__``.  Its instances take the
field values positionally, in that order, compare equal exactly when they
are of the same class with equal fields, hash and print by their fields,
and refuse assignment.  This is the part of frozen dataclasses that the
package uses, without their import and class-building cost at start-up.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """Base of immutable slotted records with field-wise ==, hash and repr.

    A subclass may define its own ``__init__`` (to coerce its arguments);
    it then sets its fields with ``object.__setattr__``.
    """

    __slots__ = ()

    def __init__(self, *values):
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(
                f"{type(self).__name__} takes {len(names)} fields, got {len(values)}"
            )
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor
        return type(self), self._fields()
