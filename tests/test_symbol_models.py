import numpy as np
import pytest

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
    symbol_curve,
)
from synspec.verify import winding_oracle


class TestSymbolOperator:
    def test_drops_zero_coefficients(self):
        op = SymbolOperator({0: 0.5, 1: 0.0})
        assert op.coeffs == {0: 0.5}
        assert op.bandwidth == 0

    def test_requires_nonzero(self):
        with pytest.raises(InvalidInputError):
            SymbolOperator({1: 0.0})

    def test_l1_bound(self):
        with pytest.raises(InvalidInputError):
            SymbolOperator({0: 1.5, 1: 1.0})

    def test_eval(self):
        op = SymbolOperator({1: 1.0, 2: 0.5})
        assert op.eval(1.0) == pytest.approx(1.5)

    def test_json_roundtrip(self):
        op = SymbolOperator({-1: 0.25 + 0.5j, 2: 0.75})
        back = SymbolOperator.from_json(op.to_json())
        assert back.coeffs == op.coeffs


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
    def test_sample_cap_raises(self, scale):
        # 1.5e-6 from the curve: steps stay above pi/2 at the cap
        lam = scale * np.exp(2j * np.pi / 3)
        with pytest.raises(ResourceLimitError):
            fredholm_index(SymbolOperator.shift(), lam)

    def test_index_matches_winding_sign(self):
        rep = fredholm_index(SymbolOperator.shift(), 0.1 + 0.1j)
        assert rep.index == -rep.winding


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
