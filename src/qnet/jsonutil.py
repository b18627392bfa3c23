"""Canonical JSON emission: sorted keys, floats at 17 significant digits.

The stdlib encoder always uses repr() for floats, which is shortest-round-trip
rather than fixed-width; reports need byte-stable output, so this tiny emitter
formats floats with '%.17g' (which round-trips any float64 exactly).
"""
from __future__ import annotations

import json
import math


class RawJSON(str):
    """Canonical JSON text, such as a serialized strategy tree, that
    canonical_dumps embeds as it stands."""


def _emit(obj, out: list[str]) -> None:
    if isinstance(obj, RawJSON):
        out.append(obj)
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float {obj!r} has no JSON form")
        out.append("%.17g" % (obj + 0.0))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"non-string key {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=True))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_dumps(obj) -> str:
    """Serialize to canonical JSON text (no trailing newline)."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)
