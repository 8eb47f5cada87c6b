import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from synspec import BallUnion, HermitianMatrix, OperatorTuple, SymbolOperator
from synspec.io_json import dumps_canonical

finite = st.floats(allow_nan=False, allow_infinity=False)
scalars = st.none() | st.booleans() | st.integers() | finite | st.text()
documents = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=20,
)
unit = st.floats(-1, 1)
fixed = settings(deadline=None, derandomize=True, max_examples=150)


def identical(a, b) -> bool:
    """Equal values of equal types; floats compared bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex()
    if isinstance(a, list):
        return len(a) == len(b) and all(map(identical, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(identical(a[k], b[k]) for k in a)
    return a == b


def reencoded(obj) -> str:
    return dumps_canonical(type(obj).from_json(
        json.loads(dumps_canonical(obj.to_json()))).to_json())


@st.composite
def operator_tuples(draw):
    n, dim = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    ops = []
    for _ in range(n):
        b = np.empty((dim, dim), dtype=complex)
        for part in (b.real, b.imag):
            part[...] = np.reshape(draw(st.lists(
                unit, min_size=dim * dim, max_size=dim * dim)), (dim, dim))
        ops.append(HermitianMatrix((b + b.conj().T) / 2))
    return OperatorTuple(tuple(ops), draw(st.floats(dim, 4.0 * dim)))


class TestCanonicalJson:
    @fixed
    @given(documents)
    def test_round_trip_is_exact(self, doc):
        assert identical(json.loads(dumps_canonical(doc)), doc)

    @fixed
    @given(documents)
    def test_keys_sorted(self, doc):
        def check(pairs):
            keys = [k for k, _ in pairs]
            assert keys == sorted(keys)
            return dict(pairs)

        json.loads(dumps_canonical(doc), object_pairs_hook=check)

    @fixed
    @given(documents)
    def test_reparse_is_fixed_point(self, doc):
        s = dumps_canonical(doc)
        assert dumps_canonical(json.loads(s)) == s

    @fixed
    @given(documents, st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_non_finite_rejected(self, doc, bad):
        with pytest.raises(ValueError):
            dumps_canonical([doc, {"x": np.float64(bad)}])
        with pytest.raises(ValueError):
            dumps_canonical({"y": [bad], "z": doc})


class TestSchemaRoundTrip:
    @fixed
    @given(operator_tuples())
    @example(OperatorTuple((HermitianMatrix(  # an imaginary -0.0 off the diagonal
        np.array([[0.5, complex(0.5, -0.0)], [0.5, 0.5]])),)))
    def test_operator_tuple(self, T):
        assert reencoded(T) == dumps_canonical(T.to_json())

    @fixed
    @given(st.integers(1, 3), st.floats(1e-3, 1.0), st.data())
    def test_ball_union(self, n, eta, data):
        rows = data.draw(st.lists(st.lists(unit, min_size=n, max_size=n),
                                  max_size=8))
        R = BallUnion(n, eta, np.array(rows, dtype=float).reshape(-1, n))
        assert reencoded(R) == dumps_canonical(R.to_json())

    @fixed
    @given(st.dictionaries(st.integers(-5, 5), st.tuples(
        st.floats(-0.25, 0.25), st.floats(-0.25, 0.25)), max_size=5))
    def test_symbol_operator(self, parts):
        assume(any(re or im for re, im in parts.values()))
        op = SymbolOperator({m: complex(re, im) for m, (re, im) in parts.items()})
        assert reencoded(op) == dumps_canonical(op.to_json())
