"""Canonical JSON serialization.

All artifacts are written through :func:`dumps_canonical` so that identical
inputs produce byte-identical files: keys are emitted in sorted order and
every float is printed with 17 significant digits, except that an integral
float below 1e17 in magnitude keeps its ``repr`` ("2.0", "-0.0").

Most of an artifact's bytes are lists of plain floats: centers and matrix
rows.  A list of plain floats, or a list of equal-length lists of them, is
formatted in one pass: one finiteness scan, one format code per element
(``%r`` or ``%.17g`` by the rule above) and a single ``%`` operation.  Every
other value, numpy scalars and tuples included, takes the recursive path,
which writes the same bytes element by element.
"""
from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

# format code of a plain float, indexed by "integral and below 1e17"
_CODES = ("%.17g", "%r")


def _float_codes(xs: list) -> list:
    """One format code per plain float of xs, after one finiteness scan."""
    if not all(map(math.isfinite, xs)):
        bad = next(x for x in xs if not math.isfinite(x))
        raise ValueError("%s is not serializable"
                         % ("NaN" if math.isnan(bad) else "Infinity"))
    return [_CODES[x.is_integer() and -1e17 < x < 1e17] for x in xs]


def _dumps_floats(obj: list) -> str | None:
    """obj in one ``%`` operation when it is a non-empty list of plain floats
    or of equal-length non-empty lists of them; None otherwise."""
    kinds = set(map(type, obj))
    if kinds == {float}:
        return "[%s]" % ", ".join(_float_codes(obj)) % tuple(obj)
    if kinds != {list}:
        return None
    m = len(obj[0])
    if not m or set(map(len, obj)) != {m}:
        return None
    flat = list(chain.from_iterable(obj))
    if set(map(type, flat)) != {float}:
        return None
    rows = map(", ".join, zip(*[iter(_float_codes(flat))] * m))
    return "[[%s]]" % "], [".join(rows) % tuple(flat)


def dumps_canonical(obj) -> str:
    if type(obj) is list:
        fast = _dumps_floats(obj)
        if fast is not None:
            return fast
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return _float_codes([x])[0] % x
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, np.ndarray):
        return dumps_canonical(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[%s]" % ", ".join(dumps_canonical(v) for v in obj)
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        return "{%s}" % ", ".join(
            "%s: %s" % (dumps_canonical(str(k)), dumps_canonical(v)) for k, v in items
        )
    raise TypeError("cannot serialize %r" % type(obj))


def dump_canonical(obj, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_canonical(obj))
        fh.write("\n")
