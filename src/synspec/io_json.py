"""Canonical JSON serialization.

All artifacts are written through :func:`dumps_canonical` so that identical
inputs produce byte-identical files: keys are emitted in sorted order and
every float is printed with 17 significant digits.
"""
from __future__ import annotations

import json

import numpy as np


def _fmt_float(x: float) -> str:
    if x != x:
        raise ValueError("NaN is not serializable")
    if x in (float("inf"), float("-inf")):
        raise ValueError("Infinity is not serializable")
    if x == int(x) and abs(x) < 1e17:
        # ".17g" prints integral floats < 1e17 without "." or exponent
        return repr(float(x))
    return format(float(x), ".17g")


def dumps_canonical(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
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
