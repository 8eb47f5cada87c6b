import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synspec import (
    GaplessCertificateError,
    HermitianMatrix,
    InvalidInputError,
    NoObstructionError,
    OperatorTuple,
    ResourceLimitError,
    SymbolOperator,
    bott_index,
    certificate_matrix,
    certified_distance_bound,
    containment_check,
    index_hypothesis_check,
    joint_diagonalize,
    op_norm,
    pairwise_commutator_norms,
    random_almost_commuting,
    random_hermitian,
    scalar_synthetic_spectrum,
    spin_triple,
)
from synspec.obstructions import _rotate_round, _round_robin
from synspec.synthetic_spectrum import (
    DEFAULT_GRID_CAP,
    GridSpec,
    bump,
    inclusion_threshold,
)


def herm(a):
    return HermitianMatrix(np.asarray(a, dtype=complex))


PAULI = (
    herm([[0, 1], [1, 0]]),
    herm([[0, -1j], [1j, 0]]),
    herm(np.diag([1.0, -1.0])),
)


class TestSpinTriple:
    def test_half_spin_is_pauli(self):
        T = spin_triple(0.5)
        assert T.dim == 2
        for got, want in zip(T.ops, PAULI):
            assert np.allclose(got.entries, want.entries)

    def test_commutator_scale(self):
        T = spin_triple(20)
        comms = pairwise_commutator_norms(T)
        assert np.abs(comms - 1.0 / 20).max() < 1e-9

    def test_norms_are_one(self):
        for j in (0.5, 1, 3.5, 10):
            T = spin_triple(j)
            for op in T.ops:
                assert op_norm(op) == pytest.approx(1.0, abs=1e-10)

    def test_casimir(self):
        for j in (1, 5, 20):
            T = spin_triple(j)
            total = sum(op.entries @ op.entries for op in T.ops)
            assert np.allclose(total, (j + 1) / j * np.eye(T.dim), atol=1e-10)

    def test_bad_j(self):
        with pytest.raises(InvalidInputError):
            spin_triple(0.3)
        with pytest.raises(InvalidInputError):
            spin_triple(0)

    @pytest.mark.parametrize("j", [2048, 1e300])
    def test_dense_matrix_cap(self, j):
        # dim 4097 is the first above the cap; j = 1e300 made numpy raise
        with pytest.raises(ResourceLimitError, match="above the cap"):
            spin_triple(j)


class TestBottIndex:
    def test_pauli_value(self):
        rep = bott_index(*PAULI)
        # eigenvalues of B are 1 (x3) and -3 (x1)
        B = certificate_matrix(*PAULI)
        w = np.sort(np.linalg.eigvalsh(B))
        assert np.allclose(w, [-3, 1, 1, 1], atol=1e-10)
        assert rep.value == 1
        assert rep.gap == pytest.approx(1.0)

    @pytest.mark.parametrize("triple", [PAULI, spin_triple(10).ops,
                                        random_almost_commuting(3, 7, 0.1, 3).ops],
                             ids=["pauli", "spin-10", "random-7"])
    def test_certificate_equals_block_matrix(self, triple):
        a, b, c = (h.entries for h in triple)
        want = np.block([[c, a - 1j * b], [a + 1j * b, -c]])
        got = certificate_matrix(*triple)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_spin_j20(self):
        T = spin_triple(20)
        rep = bott_index(*T.ops)
        assert rep.value == 1
        assert rep.gap > 0
        assert rep.bound == rep.gap / 3

    def test_commuting_sphere_triple_value_zero(self):
        rng = np.random.default_rng(11)
        # joint eigenvalues on the unit sphere, simultaneously diagonal
        pts = rng.standard_normal((6, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        ops = tuple(herm(np.diag(pts[:, i])) for i in range(3))
        rep = bott_index(*ops)
        assert rep.value == 0
        assert rep.gap == pytest.approx(1.0, abs=1e-10)

    def test_gapless_certificate_rejected(self):
        z = herm(np.zeros((2, 2)))
        with pytest.raises(GaplessCertificateError):
            bott_index(z, z, z)

    def test_orientation_antisymmetry(self):
        T = spin_triple(5)
        a = bott_index(T.ops[0], T.ops[1], T.ops[2]).value
        b = bott_index(T.ops[1], T.ops[0], T.ops[2]).value
        assert a == -b


class TestCertifiedBound:
    def test_spin_bound(self):
        T = spin_triple(20)
        rep = certified_distance_bound(T)
        assert rep == bott_index(*T.ops)
        assert rep.bound > 0 and rep.value == 1

    def test_commuting_raises(self):
        S = random_almost_commuting(3, 6, 0.5, 19, exact=True)
        ops = tuple(
            HermitianMatrix(op.entries / 2 + 0.4 * np.eye(6)) for op in S.ops
        )
        with pytest.raises(NoObstructionError):
            certified_distance_bound(OperatorTuple(ops))

    def test_scaling(self):
        T = spin_triple(10)
        r1 = certified_distance_bound(T)
        scaled = OperatorTuple(
            tuple(HermitianMatrix(0.9 * op.entries) for op in T.ops)
        )
        r2 = certified_distance_bound(scaled)
        assert r2.bound == pytest.approx(0.9 * r1.bound, rel=1e-9)

    def test_needs_triple(self):
        T = random_almost_commuting(2, 4, 1e-2, 0)
        with pytest.raises(InvalidInputError):
            certified_distance_bound(T)

    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(st.integers(1, 16), st.floats(0.01, 0.99),
           st.integers(0, 2 ** 32 - 1))
    def test_invertible_commuting_certificate_has_value_zero(self, dim, delta,
                                                             seed):
        # the step that makes gap/3 bound the distance to every commuting
        # triple: on a joint eigenvector with eigenvalues x, the certificate
        # acts as x . sigma, with eigenvalues +|x| and -|x|
        S = random_almost_commuting(3, dim, delta, seed, exact=True)
        try:
            rep = bott_index(*S.ops)
        except GaplessCertificateError:
            return
        assert rep.value == 0

    def test_value_stable_under_small_perturbations(self):
        T = spin_triple(10)
        base = bott_index(*T.ops)
        rng = np.random.default_rng(12)
        for _ in range(10):
            eps = 0.9 * base.gap / 3
            ops = tuple(
                HermitianMatrix(op.entries
                                + random_hermitian(T.dim, rng, norm=eps).entries)
                for op in T.ops
            )
            assert bott_index(*ops).value == base.value


class TestJointDiagonalize:
    def test_commuting_input_unchanged(self):
        S = random_almost_commuting(3, 10, 0.3, 23, exact=True)
        rep = joint_diagonalize(S)
        assert rep.max_distance <= 1e-9
        assert pairwise_commutator_norms(rep.S).max() <= 1e-10

    def test_two_by_two_closed_form(self):
        eps = 0.01
        T = OperatorTuple((
            herm([[0, eps], [eps, 0]]),
            herm(np.diag([1.0, -1.0])),
        ))
        rep = joint_diagonalize(T)
        assert rep.max_distance == pytest.approx(eps, abs=1e-12)
        assert op_norm(rep.S.ops[0]) < 1e-12
        assert np.allclose(rep.S.ops[1].entries, np.diag([1.0, -1.0]))

    def test_output_commutes_and_descends(self):
        for seed in range(6):
            T = random_almost_commuting(2 + seed % 2, 12, 1e-2, seed)
            rep = joint_diagonalize(T)
            assert pairwise_commutator_norms(rep.S).max() <= 1e-10
            trace = np.asarray(rep.objective_trace)
            assert np.all(np.diff(trace) <= 1e-10)

    def test_distances_recomputable(self):
        T = random_almost_commuting(2, 8, 1e-2, 31)
        rep = joint_diagonalize(T)
        for j in range(T.n):
            d = np.linalg.norm(T.ops[j].entries - rep.S.ops[j].entries, 2)
            assert rep.distances[j] == pytest.approx(d, abs=1e-9)

    def test_spin_distance_exceeds_bound(self):
        T = spin_triple(20)
        bound = certified_distance_bound(T).bound
        rep = joint_diagonalize(T, max_sweeps=30)
        assert rep.max_distance >= bound

    @pytest.mark.parametrize("max_sweeps", [0, -3, 2.5, "3", None],
                             # ids numbered as when three tol cases sat among them
                             ids=["kwargs%d" % i for i in (0, 1, 5, 6, 7)])
    def test_bad_stopping_input_rejected(self, max_sweeps):
        T = random_almost_commuting(2, 4, 1e-2, 0)
        with pytest.raises(InvalidInputError):
            joint_diagonalize(T, max_sweeps=max_sweeps)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dimension_one_returned_unchanged(self, n):
        T = random_almost_commuting(n, 1, 1e-2, n)
        rep = joint_diagonalize(T)
        assert rep.sweeps == 1 and rep.stop_reason == "converged"
        for t, s in zip(T.ops, rep.S.ops):
            assert np.array_equal(t.entries, s.entries)

    def test_single_diagonal_matrix_returned_unchanged(self):
        T = OperatorTuple((herm(np.diag([0.3, -0.2, 0.5])),))
        rep = joint_diagonalize(T)
        assert rep.sweeps == 1 and rep.stop_reason == "converged"
        assert np.array_equal(rep.S.ops[0].entries, T.ops[0].entries)

    def test_single_matrix_reproduced(self):
        T = random_almost_commuting(1, 12, 1e-2, 4)
        rep = joint_diagonalize(T)
        assert rep.stop_reason == "converged"
        assert rep.max_distance < 1e-12

    def test_sweep_cap_reported(self):
        rep = joint_diagonalize(spin_triple(3), max_sweeps=5)
        assert rep.sweeps == 5 and rep.stop_reason == "max_sweeps"
        assert rep.to_json()["stop_reason"] == "max_sweeps"
        assert len(rep.objective_trace) == 6

    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_eight_matrices(self, n):
        # n >= 8 is where the Gram matrix's summation order starts to matter
        T = random_almost_commuting(n, 6, 1e-2, 40)
        rep = joint_diagonalize(T)
        assert rep.stop_reason == "converged"
        assert pairwise_commutator_norms(rep.S).max() <= 1e-10
        assert np.all(np.diff(rep.objective_trace) <= 1e-10)


def _rotate_pairwise(X, n, pairs):
    """Reference: the rotations of a round applied one pair at a time."""
    A = X[:n]
    for p, q in pairs:
        h = np.array([(A[:, p, p] - A[:, q, q]).real,
                      2 * A[:, p, q].real, 2 * A[:, p, q].imag])
        v = np.linalg.eigh(h @ h.T)[1][:, -1]
        x, y, z = v if v[0] >= 0 else -v
        denom = math.sqrt(2.0 * (x + 1.0))
        c, s = math.sqrt((x + 1.0) / 2.0), (y - 1j * z) / denom
        if denom < 1e-12 or abs(s) < 1e-16:
            continue
        ap, aq = A[:, p], A[:, q]
        A[:, p], A[:, q] = c * ap + np.conj(s) * aq, -s * ap + c * aq
        xp, xq = X[:, :, p], X[:, :, q]
        X[:, :, p], X[:, :, q] = c * xp + s * xq, -np.conj(s) * xp + c * xq


class TestRoundRobin:
    @pytest.mark.parametrize("d", range(2, 41))
    def test_schedule_covers_each_pair_once(self, d):
        P, Q = _round_robin(d)
        assert P.shape == Q.shape == (d - 1 + d % 2, d // 2)
        assert np.all(P < Q)
        for p, q in zip(P, Q):
            assert np.unique(np.concatenate([p, q])).size == 2 * p.size
        met = sorted(zip(P.ravel().tolist(), Q.ravel().tolist()))
        assert met == [(p, q) for p in range(d) for q in range(p + 1, d)]

    @pytest.mark.parametrize("n, d", [(1, 5), (2, 8), (3, 9), (8, 6)])
    def test_batched_round_equals_pairwise(self, n, d):
        T = random_almost_commuting(n, d, 1e-1, 7 * d + n)
        X = np.stack([op.entries for op in T.ops] + [np.eye(d, dtype=complex)])
        Y = X.copy()
        for p, q in zip(*_round_robin(d)):
            _rotate_round(X, n, p, q)
            _rotate_pairwise(Y, n, zip(p, q))
            assert np.allclose(X, Y, rtol=0, atol=1e-13)


class TestIndexHypothesisCheck:
    def test_shift_fails_with_hole_index(self):
        rep = index_hypothesis_check(SymbolOperator.shift(), 0.1)
        assert not rep.verdict
        assert len(rep.holes) == 1
        hole = rep.holes[0]
        assert hole.index == -1
        assert abs(hole.lam) < 0.5

    def test_normal_symbol_passes(self):
        op = SymbolOperator({-1: 0.5, 1: 0.5})
        rep = index_hypothesis_check(op, 0.1)
        assert rep.verdict
        assert len(rep.holes) == 0

    def test_scaled_segment_symbol_passes(self):
        # z/2 + 1/(2z): curve is the segment [-1, 1], no holes
        op = SymbolOperator({1: 0.5, -1: 0.5})
        rep = index_hypothesis_check(op, 0.15)
        assert rep.verdict

    def test_scalar_spectrum_covers_curve(self):
        op = SymbolOperator.shift()
        region, err = scalar_synthetic_spectrum(op, 0.1)
        t = np.exp(2j * np.pi * np.arange(64) / 64)
        pts = np.stack([t.real, t.imag], axis=1)
        assert containment_check(pts, region, 0.0)
        assert err < 0.01

    @pytest.mark.parametrize("coeffs", [
        {1: 1.0},
        {2: 1.0},
        {-1: 0.5, 1: 0.5},
        {-1: 0.3 + 0.2j, 1: 0.35, 2: 0.1j},
        {-3: 0.2 - 0.15j, 0: 0.1 + 0.05j, 5: 0.4j},
    ])
    def test_scalar_spectrum_matches_dense_rows(self, coeffs):
        # the dense loop scores every circle sample in every grid row
        op = SymbolOperator(coeffs)
        t = np.arange(4096) / 4096
        curve = op.eval(np.exp(2j * np.pi * t))
        for eta in (0.05, 0.1, 0.2, 0.3, 0.5, 0.9):
            coords = GridSpec.create(2, 1.0, eta).axis_coords()
            w1 = bump(coords[:, None], curve.real, eta)
            w2 = bump(coords[:, None], curve.imag, eta)
            thresh = inclusion_threshold(eta)
            centers = [(coords[i1], coords[i2])
                       for i1 in range(coords.size)
                       for i2 in np.nonzero((w2 * w1[i1]).max(axis=1)
                                            >= thresh)[0]]
            region, hop = scalar_synthetic_spectrum(op, eta)
            assert np.array_equal(region.centers,
                                  np.asarray(centers).reshape(-1, 2))
            assert hop == float(np.abs(np.diff(np.append(curve, curve[0]))).max())

    @pytest.mark.parametrize("coeffs", [
        {1: 1.0},
        {-1: 0.5, 1: 0.5},
        {0: 1.0},
        {0: -1j},
        {0: 0.5 + 0.5j, 1: 0.5},
        {-3: 0.2 - 0.15j, 0: 0.1 + 0.05j, 5: 0.4j},
    ], ids=["circle", "segment", "point-1", "point-minus-i", "corner-circle",
            "mixed"])
    def test_scalar_spectrum_matches_dense_rows_at_more_scales(self, coeffs):
        # curves that touch +-1, where bump windows clip at the grid edge; the
        # dense rows skip only samples of zero weight, whose products are 0
        op = SymbolOperator(coeffs)
        curve = op.eval(np.exp(2j * np.pi * np.arange(4096) / 4096))
        for eta in (0.02, 0.45, 0.7):
            coords = GridSpec.create(2, 1.0, eta).axis_coords()
            w1 = bump(coords[:, None], curve.real, eta)
            w2 = bump(coords[:, None], curve.imag, eta)
            thresh = inclusion_threshold(eta)
            centers = []
            for i1 in range(coords.size):
                live = w1[i1] > 0
                score = (w2[:, live] * w1[i1, live]).max(axis=1, initial=0.0)
                centers += [(coords[i1], coords[i2])
                            for i2 in np.nonzero(score >= thresh)[0]]
            region, _ = scalar_synthetic_spectrum(op, eta)
            assert np.array_equal(region.centers, np.asarray(centers).reshape(-1, 2))

    def test_quotient_counts_logged(self, caplog):
        caplog.set_level(logging.DEBUG, logger="synspec.obstructions")
        op, eta = SymbolOperator.shift(), 0.1
        scalar_synthetic_spectrum(op, eta)
        curve = op.eval(np.exp(2j * np.pi * np.arange(4096) / 4096))
        coords = GridSpec.create(2, 1.0, eta).axis_coords()
        w1 = bump(coords[:, None], curve.real, eta)
        plateau = int((w1 == 1.0).sum())
        fringe = int(((w1 >= inclusion_threshold(eta)) & (w1 < 1.0)).sum())
        assert caplog.messages == ["quotient spectrum samples=4096 plateau=%d "
                                   "fringe=%d" % (plateau, fringe)]
        assert plateau > 10 * fringe > 0

    @pytest.mark.parametrize("eta", [0.003, 1e-17])
    def test_quotient_grid_cap(self, eta):
        # at eta = 0.003 the grid has 26,081,449 points
        assert GridSpec.create(2, 1.0, eta).point_count > DEFAULT_GRID_CAP
        with pytest.raises(ResourceLimitError, match="above the cap"):
            scalar_synthetic_spectrum(SymbolOperator.shift(), eta)

    def test_oversized_symbol_rejected(self):
        op = SymbolOperator({0: 1.5})
        with pytest.raises(InvalidInputError):
            index_hypothesis_check(op, 0.1)
