"""The one-pass float formatting of ``dumps_canonical`` against the
element-wise serializer it replaced, kept here as the reference."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synspec.io_json import dumps_canonical


def _reference_float(x: float) -> str:
    if x != x:
        raise ValueError("NaN is not serializable")
    if x in (float("inf"), float("-inf")):
        raise ValueError("Infinity is not serializable")
    if x == int(x) and abs(x) < 1e17:
        return repr(float(x))
    return format(float(x), ".17g")


def reference_dumps(obj) -> str:
    """The recursive serializer, one element at a time."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _reference_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, np.ndarray):
        return reference_dumps(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[%s]" % ", ".join(reference_dumps(v) for v in obj)
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        return "{%s}" % ", ".join(
            "%s: %s" % (reference_dumps(str(k)), reference_dumps(v))
            for k, v in items)
    raise TypeError("cannot serialize %r" % type(obj))


BELOW = math.nextafter(1e17, 0)  # the largest float below 1e17
EDGES = [0.0, -0.0, 1.0, -2.0, BELOW, -BELOW, 1e17, -1e17,
         math.nextafter(1e17, math.inf), 1e23, 2.0 ** 60, 5e-324, -5e-324,
         2.2250738585072014e-308 / 3, 0.1, 1 / 3, 1.7976931348623157e308]
plain = (st.floats(allow_nan=False, allow_infinity=False)
         | st.sampled_from(EDGES)
         | st.integers(-2 ** 62, 2 ** 62).map(float))
element = plain | plain.map(np.float64) | st.integers(-5, 5)
rows = st.integers(1, 4).flatmap(lambda m: st.lists(
    st.lists(plain, min_size=m, max_size=m), min_size=1, max_size=6))
documents = st.recursive(
    plain | element | rows | st.lists(plain, max_size=8)
    | st.lists(st.lists(plain, max_size=3), max_size=4),  # ragged rows
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=20,
)
fixed = settings(deadline=None, derandomize=True, max_examples=300)


class TestOnePassWriter:
    @fixed
    @given(documents)
    def test_same_bytes_as_reference(self, doc):
        assert dumps_canonical(doc) == reference_dumps(doc)

    @fixed
    @given(rows)
    def test_rows_and_their_arrays(self, doc):
        a = np.array(doc)
        assert dumps_canonical(doc) == reference_dumps(doc)
        assert dumps_canonical(a) == reference_dumps(a)
        assert dumps_canonical(a[0]) == reference_dumps(a[0])

    @pytest.mark.parametrize("doc", [
        EDGES, [EDGES[:4], EDGES[4:8]], [[]], [[], []], [],
        [np.float64(0.5), 0.25], [[0.5, np.float64(0.25)]], [[1.0], [2]],
        [(0.5, 1.0)], [[0.5, 1.0], (2.0, 3.0)], {"x": [[-0.0, 1e17]]},
    ])
    def test_edge_documents(self, doc):
        assert dumps_canonical(doc) == reference_dumps(doc)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("shape", ["flat", "row", "rows", "dict"])
    def test_non_finite_in_a_row_rejected(self, bad, shape):
        doc = {"flat": [0.5, bad, 1.0],
               "row": [[0.5, 1.0, bad]],
               "rows": [[0.5, 1.0], [math.inf, bad]],
               "dict": {"c": [[0.5, 1.0], [bad, 2.0]]}}[shape]
        with pytest.raises(ValueError) as expected:
            reference_dumps(doc)
        with pytest.raises(ValueError) as got:
            dumps_canonical(doc)
        assert str(got.value) == str(expected.value)
