"""Base class of qnet's small immutable value classes.

A subclass lists its slots in __slots__ and, in _fields, the ones that
make up its value, in the order its constructor takes them.  Value's
__init__ binds positional and keyword arguments to _fields, as a def with
those parameters and no defaults would, and stores each with _set.  A
subclass defines __init__ only to validate or normalise a field.
Value then compares, hashes, prints, pickles and (by _asdict) lists an
instance by those fields and refuses assignment and deletion; nothing is
generated at import time, so importing qnet stays cheap.  Rows that
code builds by the thousand from values it has checked itself, a graph's
Channel and a trace's ReductionStep, are named tuples instead.
"""
from __future__ import annotations

__all__ = ["Value"]

# Stores a slot from __init__, past Value.__setattr__.
_set = object.__setattr__
# Makes an instance without __init__, for code on a hot path that checks
# the fields itself and stores each with _set (or the slot's own setter).
_new = object.__new__


def _bind(cls: type, args: tuple, kwargs: dict) -> tuple:
    """args and kwargs as one value per field of cls, in _fields order."""
    # The messages are Python's for a def, which counts self.
    fields, name = cls._fields, f"{cls.__qualname__}.__init__()"
    if len(args) > len(fields):
        raise TypeError(
            f"{name} takes {len(fields) + 1} positional arguments "
            f"but {len(args) + 1} were given"
        )
    for field in kwargs:
        if field not in fields:
            raise TypeError(f"{name} got an unexpected keyword argument {field!r}")
        if field in fields[: len(args)]:
            raise TypeError(f"{name} got multiple values for argument {field!r}")
    for field in fields[len(args) :]:
        if field not in kwargs:
            raise TypeError(f"{name} missing required argument: {field!r}")
    return args + tuple([kwargs[field] for field in fields[len(args) :]])


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = _bind(type(self), args, kwargs)
        for name, value in zip(fields, args):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _asdict(self) -> dict:
        """The fields by name, in _fields order, as namedtuple._asdict."""
        return dict(zip(self._fields, self._values()))

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
        # Rebuilt through __init__, which validates the fields again.
        return type(self), self._values()
