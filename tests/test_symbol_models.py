import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synspec import (
    HermitianMatrix,
    InvalidInputError,
    PointOnEssentialSpectrumError,
    ResourceLimitError,
    SymbolOperator,
    TruncationFamily,
    band_matrix,
    commutator_norm,
    fredholm_index,
    quasicentral_family,
    ramp_diagonal,
)
from synspec import symbol_models
from synspec.symbol_models import MAX_WINDING_SAMPLES, _circle
from synspec.verify import winding_oracle


def symbol_curve(op: SymbolOperator, samples: int) -> np.ndarray:
    """Closed polyline s(e^{2 pi i j/samples}), j = 0..samples-1."""
    if samples < 8 * op.bandwidth:
        raise InvalidInputError("need at least 8*bandwidth samples")
    t = np.arange(samples) / samples
    return op.eval(np.exp(2j * math.pi * t))


def doubling_reference(op, lam):
    """fredholm_index's earlier rule: the whole circle sampled afresh by
    symbol_curve and doubled, never past the cap, until every angular step
    is below pi/2."""
    lam = complex(lam)
    samples = max(256, 8 * op.bandwidth)
    while True:
        v = symbol_curve(op, samples) - lam
        if np.abs(v).min() <= 1e-6:
            raise PointOnEssentialSpectrumError("on the curve")
        steps = np.angle(np.roll(v, -1) / v)
        if np.abs(steps).max() < math.pi / 2:
            break
        if samples * 2 > MAX_WINDING_SAMPLES:
            raise ResourceLimitError("cap")
        samples *= 2
    return int(round(float(steps.sum()) / (2 * math.pi)))


@st.composite
def symbol_and_point(draw):
    """A symbol of bandwidth 1-40 and a point 1e-5 to 1 away from its curve."""
    bw = draw(st.integers(1, 40))
    powers = draw(st.lists(st.integers(-bw, bw), max_size=3))
    powers = sorted(set(powers) | {draw(st.sampled_from([-bw, bw]))})
    unit = st.floats(-1, 1)
    coeffs = [complex(draw(unit), draw(unit)) for _ in powers]
    total = sum(abs(c) for c in coeffs)
    if total == 0:
        coeffs, total = [1.0] * len(powers), len(powers)
    scale = draw(st.floats(0.2, 1.0)) / total
    op = SymbolOperator({m: c * scale for m, c in zip(powers, coeffs)})
    z = np.exp(2j * np.pi * draw(st.floats(0, 1)))
    on_curve = sum(c * z ** m for m, c in op.coeffs.items())
    dist = 10.0 ** draw(st.floats(-5, 0))
    return op, on_curve + dist * np.exp(2j * np.pi * draw(st.floats(0, 1)))


class TestSymbolOperator:
    def test_drops_zero_coefficients(self):
        op = SymbolOperator({0: 0.5, 1: 0.0})
        assert op.coeffs == {0: 0.5}
        assert op.bandwidth == 0

    @pytest.mark.parametrize("m", [1.5, 1.0, "1", None])
    def test_non_integral_power_rejected(self, m):
        with pytest.raises(InvalidInputError, match="powers must be integers"):
            SymbolOperator({m: 0.3, 2: 0.4})

    def test_numpy_integer_power_accepted(self):
        op = SymbolOperator({np.int64(-1): 0.3, np.int32(2): 0.4})
        assert op.coeffs == {-1: 0.3, 2: 0.4}
        assert all(type(m) is int for m in op.coeffs)

    def test_requires_nonzero(self):
        with pytest.raises(InvalidInputError):
            SymbolOperator({1: 0.0})

    def test_l1_bound(self):
        with pytest.raises(InvalidInputError):
            SymbolOperator({0: 1.5, 1: 1.0})

    def test_eval(self):
        op = SymbolOperator({1: 1.0, 2: 0.5})
        assert op.eval(1.0) == pytest.approx(1.5)

    def test_eval_independent_of_call_size(self):
        # 2^15 points are past the size where numpy reuses temporaries
        op = SymbolOperator({-3: 0.2 - 0.15j, 1: 0.3 + 0.25j, 4: 0.1 + 0.2j})
        z = np.exp(2j * np.pi * (np.arange(2 ** 15) / 2 ** 15))
        assert np.array_equal(op.eval(z)[::4], op.eval(z[::4]))

    def test_json_roundtrip(self):
        op = SymbolOperator({-1: 0.25 + 0.5j, 2: 0.75})
        back = SymbolOperator.from_json(op.to_json())
        assert back.coeffs == op.coeffs

    @pytest.mark.parametrize("key", ["1_0", " +1 ", "+1", "01", "-0", "1.0", ""])
    def test_non_canonical_power_rejected(self, key):
        # int() reads "1_0" as 10 and " +1 " as 1
        with pytest.raises(InvalidInputError, match="canonical integer"):
            SymbolOperator.from_json({"coeffs": {key: [0.5, 0.0]}})

    @pytest.mark.parametrize("pair", [[True, 0], [0.5, 0, 99], [0.5], "0.5",
                                      [0.5, None], ["0.5", 0], [10 ** 400, 0]])
    def test_coefficient_must_be_two_numbers(self, pair):
        with pytest.raises(InvalidInputError, match=r"\[re, im\]"):
            SymbolOperator.from_json({"coeffs": {"1": pair}})

    @pytest.mark.parametrize("obj", [{}, [], {"coeffs": [[0.5, 0]]}])
    def test_malformed_json_rejected(self, obj):
        with pytest.raises(InvalidInputError, match="malformed"):
            SymbolOperator.from_json(obj)

    def test_integer_parts_accepted(self):
        op = SymbolOperator.from_json({"coeffs": {"-12": [1, 0], "0": [0, -1]}})
        assert op.coeffs == {-12: 1.0, 0: -1j}


class TestSymbolCurve:
    def test_shift_circle(self):
        pts = symbol_curve(SymbolOperator.shift(), 64)
        assert pts.shape == (64,)
        assert np.allclose(np.abs(pts), 1.0)

    def test_constant(self):
        pts = symbol_curve(SymbolOperator({0: 0.5}), 16)
        assert np.allclose(pts, 0.5)

    def test_min_samples(self):
        with pytest.raises(InvalidInputError):
            symbol_curve(SymbolOperator({2: 1.0}), 8)


class TestFredholmIndex:
    def test_shift_origin(self):
        rep = fredholm_index(SymbolOperator.shift(), 0.0)
        assert rep.winding == 1 and rep.index == -1
        assert rep.index == -winding_oracle(SymbolOperator.shift(), 0.0)

    def test_shift_outside(self):
        rep = fredholm_index(SymbolOperator.shift(), 2.0)
        assert rep.index == 0

    def test_square_symbol(self):
        op = SymbolOperator({2: 1.0})
        rep = fredholm_index(op, 0.0)
        assert rep.index == -2
        assert rep.index == -winding_oracle(op, 0.0)

    def test_point_on_curve_rejected(self):
        with pytest.raises(PointOnEssentialSpectrumError):
            fredholm_index(SymbolOperator.shift(), 1.0)

    def test_index_constant_in_hole(self):
        rng = np.random.default_rng(9)
        op = SymbolOperator({1: 1.0, 2: 0.3})
        for _ in range(20):
            lam = 0.3 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
            assert fredholm_index(op, lam).index == -1

    def test_normal_model_winding_zero(self):
        op = SymbolOperator({-1: 0.5, 1: 0.5})  # curve = [-1, 1] segment
        rng = np.random.default_rng(10)
        for _ in range(20):
            lam = complex(rng.uniform(-2, 2), rng.uniform(0.1, 1.5))
            assert fredholm_index(op, lam).winding == 0

    @pytest.mark.parametrize("scale", [1 - 1.5e-6, 1 + 1.5e-6])
    def test_near_curve_point_certified(self, scale):
        # 1.5e-6 from the curve: the pi/2 step rule hit the cap here, while
        # bisecting the arcs next to lam certifies it with a few midpoints
        lam = scale * np.exp(2j * np.pi / 3)
        rep = fredholm_index(SymbolOperator.shift(), lam)
        assert rep.winding == (1 if scale < 1 else 0)
        assert rep.samples < 300

    def test_sample_cap_holds_for_any_start(self, monkeypatch):
        # bandwidth 2^18 needs a start of 2^21 samples: refused unevaluated,
        # with no circle built
        evaluated = []
        monkeypatch.setattr(SymbolOperator, "eval",
                            lambda self, z: evaluated.append(z))
        _circle.cache_clear()
        with pytest.raises(ResourceLimitError, match="start of 2097152"):
            fredholm_index(SymbolOperator({2 ** 18: 0.5}), 0.1)
        assert not evaluated
        assert _circle.cache_info().currsize == 0

    def test_bisection_stops_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(symbol_models, "MAX_WINDING_SAMPLES", 256)
        lam = (1 - 1.5e-6) * np.exp(2j * np.pi / 3)
        with pytest.raises(ResourceLimitError, match="at 256 samples"):
            fredholm_index(SymbolOperator.shift(), lam)

    @pytest.mark.parametrize("coeffs, lam, want", [
        ({-23: -0.000448 - 0.363224j, -16: -0.679086 - 0.190432j,
          11: 0.230829 - 0.729839j}, 0.111628 - 0.059129j, -5),
        ({35: 0.044416 + 0.305085j, -34: -0.291983 + 0.758187j},
         -0.467741 - 0.48739j, -16),
    ])
    def test_winding_where_doubling_hit_the_cap(self, coeffs, lam, want):
        op = SymbolOperator(coeffs)
        with pytest.raises(ResourceLimitError):
            doubling_reference(op, lam)
        assert fredholm_index(op, lam).winding == want == winding_oracle(op, lam)

    @pytest.mark.parametrize("coeffs, lam, want", [
        ({-7: -0.683669 - 0.303088j, 10: 0.202290 + 0.496214j},
         1.283667 - 0.008136j, 1),
        ({-8: -0.634038 + 0.262198j, 12: -0.472365 - 0.111024j},
         -0.199487 + 1.154208j, 4),
        ({-2: -0.672769 - 0.197640j, 2: 0.064872 - 0.173325j,
          8: 0.071518 + 0.137622j}, 0.048186 + 0.943865j, -2),
    ])
    def test_loops_between_start_samples(self, coeffs, lam, want):
        # every step of the 256 start samples is below pi/2, yet the curve
        # loops around lam between two of them: the pi/2 rule answers 0
        op = SymbolOperator(coeffs)
        assert doubling_reference(op, lam) == 0
        assert fredholm_index(op, lam).winding == want == winding_oracle(op, lam)

    def test_winding_equals_root_count(self):
        rng = np.random.default_rng(16)
        for _ in range(300):
            bw = int(rng.integers(1, 41))
            powers = rng.integers(-bw, bw + 1, size=int(rng.integers(0, 5)))
            powers = [int(rng.choice([-bw, bw]))] + powers.tolist()
            cs = rng.normal(size=len(powers)) + 1j * rng.normal(size=len(powers))
            cs *= rng.uniform(0.2, 2) / np.abs(cs).sum()
            coeffs = {}
            for m, c in zip(powers, cs):
                coeffs[m] = coeffs.get(m, 0) + c
            op = SymbolOperator(coeffs)
            lam = 0.7 * complex(rng.normal(), rng.normal())
            assert fredholm_index(op, lam).winding == winding_oracle(op, lam)

    def test_index_matches_winding_sign(self):
        rep = fredholm_index(SymbolOperator.shift(), 0.1 + 0.1j)
        assert rep.index == -rep.winding

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"),
                                     complex(0.1, float("nan"))])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(InvalidInputError, match="finite"):
            fredholm_index(SymbolOperator.shift(), lam)

    @settings(deadline=None, derandomize=True, max_examples=30)
    @given(st.lists(symbol_and_point(), min_size=2, max_size=3))
    def test_refinement_matches_doubling_reference(self, cases):
        # calls interleave across base sizes; the pi/2 rule can miss a
        # loop, so the root count decides too
        for op, lam in cases:
            try:
                got = fredholm_index(op, lam).winding
            except PointOnEssentialSpectrumError:
                continue  # a sample within 1e-6 of lam: no winding to compare
            assert got == winding_oracle(op, lam)
            try:
                assert got == doubling_reference(op, lam)
            except (PointOnEssentialSpectrumError, ResourceLimitError):
                pass

    @pytest.mark.parametrize("sizes", [(256, 4096, 1024), (320, 640, 256),
                                       (2 ** 16, 8, 24, 3, 256)])
    def test_circle_table_views(self, sizes):
        # in any order of sizes, each circle equals a direct build
        for N in sizes:
            view = _circle(N)
            direct = np.exp(2j * np.pi * (np.arange(N) / N))
            assert not view.flags.writeable
            assert np.array_equal(np.ascontiguousarray(view).view(np.int64),
                                  direct.view(np.int64))


class TestTruncations:
    def test_shift_band_matrix(self):
        t = band_matrix(SymbolOperator.shift(), 3)
        assert np.allclose(t, np.diag(np.ones(2), -1))

    def test_constant_symbol(self):
        assert np.array_equal(band_matrix(SymbolOperator({0: 1.0}), 5),
                              np.eye(5))


class TestRampAndFamily:
    def test_ramp_shape(self):
        e = ramp_diagonal(40, 4, 5)
        assert np.allclose(e[:4], 1.0)
        assert np.allclose(e[-4:], 1.0)
        assert np.allclose(e[9:31], 0.0)
        steps = np.abs(np.diff(e))
        assert steps.max() == pytest.approx(1.0 / 5)

    def test_sharp_ramp(self):
        e = ramp_diagonal(20, 3, 4, sharp=True)
        assert set(np.unique(e)) == {0.0, 1.0}
        assert e[:3].sum() == 3 and e[-3:].sum() == 3

    def test_family_invariant(self):
        with pytest.raises(InvalidInputError):
            TruncationFamily(SymbolOperator.shift(), 40, 10, 10)

    @pytest.mark.parametrize("N, n0, w", [(100.5, 10, 20), (100, 10.0, 20),
                                          (100, 10, True), (100, True, 20),
                                          (100, 10, 0)])
    def test_family_sizes_checked(self, N, n0, w):
        with pytest.raises(InvalidInputError, match="must be an integer"):
            TruncationFamily(SymbolOperator.shift(), N, n0, w)

    def test_family_stores_ints(self):
        fam = TruncationFamily(SymbolOperator.shift(), np.int64(100),
                               np.int64(10), np.int64(20))
        assert all(type(v) is int for v in (fam.N, fam.n0, fam.w))

    @pytest.mark.parametrize("N, n0, w", [(10, 2, 0), (10, 2, 2.5),
                                          (10.0, 2, 3), (10, True, 3)])
    def test_ramp_sizes_checked(self, N, n0, w):
        # w = 0 gave NaN entries with a divide warning
        with pytest.raises(InvalidInputError, match="must be (an )?integers?"):
            ramp_diagonal(N, n0, w)

    def test_ramp_takes_numpy_integers(self):
        assert np.array_equal(
            ramp_diagonal(np.int64(40), np.int64(4), np.int64(5)),
            ramp_diagonal(40, 4, 5))


class TestQuasicentralFamily:
    def test_ramp_commutator_exact(self):
        fam = TruncationFamily(SymbolOperator.shift(), 400, 10, 10)
        _, _, diag = quasicentral_family(fam)
        assert diag["ramp_commutator"] == pytest.approx(0.1, abs=1e-12)

    def test_doubling_w_halves_ramp_commutator(self):
        shift = SymbolOperator.shift()
        _, _, d1 = quasicentral_family(TruncationFamily(shift, 400, 10, 20))
        _, _, d2 = quasicentral_family(TruncationFamily(shift, 400, 10, 40))
        assert d1["ramp_commutator"] == pytest.approx(2 * d2["ramp_commutator"])

    def test_commutator_bound_and_decay(self):
        shift = SymbolOperator.shift()
        norms = []
        for w in range(10, 101, 10):
            _, _, diag = quasicentral_family(TruncationFamily(shift, 400, 10, w))
            assert diag["commutator_norm"] <= 2.0 / w
            norms.append(diag["commutator_norm"])
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_sharp_ramp_keeps_corner_defect(self):
        fam = TruncationFamily(SymbolOperator.shift(), 400, 10, 10)
        _, _, diag = quasicentral_family(fam, sharp=True)
        assert diag["commutator_norm"] >= 0.49

    def test_outputs_hermitian_and_consistent(self):
        fam = TruncationFamily(SymbolOperator.shift(), 100, 10, 10)
        t1, t2, diag = quasicentral_family(fam)
        assert isinstance(t1, HermitianMatrix)
        assert diag["commutator_norm"] == pytest.approx(
            commutator_norm(t1, t2), abs=1e-12
        )
