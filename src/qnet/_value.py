"""Base class of qnet's small immutable value classes.

A subclass lists its slots in __slots__ and, in _fields, the ones that
make up its value, in the order its __init__ takes them; __init__ stores
them with _set.  Value then compares, hashes, prints and pickles an
instance by those fields and refuses assignment and deletion; nothing is
generated at import time, so importing qnet stays cheap.
"""
from __future__ import annotations

__all__ = ["Value"]

# Stores a slot from __init__, past Value.__setattr__.
_set = object.__setattr__


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        # Only the same type compares, so Swap(l, r) != Purify(l, r).
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(
            [f"{name}={getattr(self, name)!r}" for name in self._fields]
        )
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Rebuilt through __init__, which sets the derived slots again.
        return type(self), self._values()
