"""Canonical JSON emission: sorted keys, floats at 17 significant digits.

The stdlib encoder always uses repr() for floats, which is shortest-round-trip
rather than fixed-width; reports need byte-stable output, so this tiny emitter
formats floats with '%.17g' (which round-trips any float64 exactly).  Strings
are quoted by the stdlib's C quoting function, exactly as
json.dumps(s, ensure_ascii=True) quotes them.  Text written beforehand,
such as a strategy tree, a graph document or a reduction trace, is embedded
as RawJSON, the one way to put pre-written JSON into a report.
"""
from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as quote

__all__ = ["RawJSON", "canonical_dumps", "float_text", "quote"]


class RawJSON(str):
    """Canonical JSON text that canonical_dumps embeds as it stands."""


def float_text(x: float) -> str:
    """'%.17g' text of a finite float; -0.0 is written as 0."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite float {x!r} has no JSON form")
    return "%.17g" % (x + 0.0)


def _emit(obj, out: list[str]) -> None:
    # The common exact types first.  The order of the other checks does not
    # matter: no type is both a dict and a list, a string or a number.
    t = type(obj)
    if t is str:
        out.append(quote(obj))
    elif t is float:
        out.append(float_text(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"non-string key {key!r}")
            if i:
                out.append(",")
            out.append(quote(key))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif isinstance(obj, RawJSON):
        out.append(obj)
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(quote(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(float_text(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_dumps(obj) -> str:
    """Serialize to canonical JSON text (no trailing newline)."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)
