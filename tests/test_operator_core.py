import numpy as np
import pytest

from synspec import (
    HermitianMatrix,
    InvalidInputError,
    OperatorTuple,
    commutator_norm,
    joint_eigensystem,
    op_norm,
    pairwise_commutator_norms,
    random_almost_commuting,
    random_hermitian,
    spectral_norm,
)
from synspec.synthetic_spectrum import _bump_matrix


def herm(a):
    return HermitianMatrix(np.asarray(a, dtype=complex))


class TestHermitianMatrix:
    def test_symmetrizes_small_deviation(self):
        a = np.array([[1.0, 0.5 + 1e-14j], [0.5, 2.0]])
        h = HermitianMatrix(a)
        assert np.allclose(h.entries, h.entries.conj().T)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidInputError):
            herm([[0, 1], [0, 0]])

    def test_rejects_non_square(self):
        with pytest.raises(InvalidInputError):
            herm(np.zeros((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            herm([[np.nan, 0], [0, 0]])

    def test_entries_readonly(self):
        h = herm(np.eye(2))
        with pytest.raises(ValueError):
            h.entries[0, 0] = 5

    def test_json_roundtrip(self):
        rng = np.random.default_rng(0)
        h = random_hermitian(6, rng)
        back = HermitianMatrix.from_json(h.to_json())
        assert np.allclose(back.entries, h.entries)

    def test_from_json_rejects_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            HermitianMatrix.from_json({"dim": 3, "re": [[0]], "im": [[0]]})


class TestOperatorTuple:
    def test_requires_shared_dim(self):
        with pytest.raises(InvalidInputError):
            OperatorTuple((herm(np.eye(2)), herm(np.eye(3))))

    def test_norm_bound_enforced(self):
        with pytest.raises(InvalidInputError):
            OperatorTuple((herm(2 * np.eye(2)),), norm_bound=1.0)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            OperatorTuple(())

    def test_json_roundtrip(self):
        T = random_almost_commuting(3, 5, 1e-2, 4)
        back = OperatorTuple.from_json(T.to_json())
        assert back.n == 3 and back.dim == 5
        for a, b in zip(back.ops, T.ops):
            assert np.allclose(a.entries, b.entries)


class TestOpNorm:
    def test_diagonal(self):
        assert op_norm(herm(np.diag([3.0, -5.0]))) == pytest.approx(5.0)

    def test_zero(self):
        assert op_norm(herm(np.zeros((4, 4)))) == 0.0

    def test_pauli_x(self):
        assert op_norm(herm([[0, 1], [1, 0]])) == pytest.approx(1.0, abs=1e-10)

    def test_triangle_and_submultiplicative(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = random_hermitian(5, rng).entries
            b = random_hermitian(5, rng).entries
            assert spectral_norm(a + b) <= spectral_norm(a) + spectral_norm(b) + 1e-10
            assert spectral_norm(a @ b) <= spectral_norm(a) * spectral_norm(b) + 1e-10


class TestCommutator:
    def test_diagonals_commute(self):
        assert commutator_norm(herm(np.diag([1, 2])), herm(np.diag([3, 4]))) == 0.0

    def test_pauli_pair(self):
        # AB - BA = [[0,-2],[2,0]], both singular values 2
        a = herm([[0, 1], [1, 0]])
        b = herm(np.diag([1.0, -1.0]))
        assert commutator_norm(a, b) == pytest.approx(2.0, abs=1e-12)

    def test_self_commutator(self):
        rng = np.random.default_rng(2)
        a = random_hermitian(4, rng)
        assert commutator_norm(a, a) < 1e-14

    def test_dim_mismatch(self):
        with pytest.raises(InvalidInputError):
            commutator_norm(herm(np.eye(2)), herm(np.eye(3)))


class TestFuncCalc:
    def test_eigendecomposition_cached(self, monkeypatch):
        a = random_hermitian(5, np.random.default_rng(7))
        w, U = np.linalg.eigh(a.entries)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda x: calls.append(x) or eigh(x))
        first, second = _bump_matrix(a, 0.1, 0.3), _bump_matrix(a, 0.1, 0.3)
        assert len(calls) == 1
        assert np.array_equal(first, second)
        assert np.array_equal(a.eigh[0], w) and np.array_equal(a.eigh[1], U)
        with pytest.raises(ValueError):
            a.eigh[1][0, 0] = 0.0

    def test_bump_on_diagonal(self):
        # theta_{0,0.1}: 1 at 0.05 (inside the plateau), 0 at 0.2 (outside)
        a = herm(np.diag([0.05, 0.2]))
        out = _bump_matrix(a, 0.0, 0.1)
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_commutes_with_commuting_partner(self):
        S = random_almost_commuting(2, 8, 0.3, 9, exact=True)
        fa = herm(_bump_matrix(S.ops[0], 0.2, 0.3))
        assert commutator_norm(fa, S.ops[1]) < 1e-8


class TestGenerators:
    @pytest.mark.parametrize("delta", [1e-1, 1e-2, 1e-3])
    def test_commutator_budget(self, delta):
        for seed in range(20):
            n = 2 + seed % 3
            dim = 4 + 7 * (seed % 5)
            T = random_almost_commuting(n, dim, delta, seed)
            assert pairwise_commutator_norms(T).max() < delta
            for op in T.ops:
                assert op_norm(op) <= 1.0 + 1e-9

    def test_exact_flag(self):
        T = random_almost_commuting(3, 10, 1e-2, 0, exact=True)
        assert pairwise_commutator_norms(T).max() < 1e-13

    def test_deterministic(self):
        a = random_almost_commuting(2, 6, 1e-2, 42)
        b = random_almost_commuting(2, 6, 1e-2, 42)
        for x, y in zip(a.ops, b.ops):
            assert np.array_equal(x.entries, y.entries)

    def test_single_operator(self):
        T = random_almost_commuting(1, 4, 1e-2, 1)
        assert T.n == 1
        assert pairwise_commutator_norms(T).size == 0

    def test_bad_args(self):
        with pytest.raises(InvalidInputError):
            random_almost_commuting(0, 4, 1e-2, 0)
        with pytest.raises(InvalidInputError):
            random_almost_commuting(2, 4, 0.0, 0)


class TestJointEigensystem:
    def test_reconstructs_commuting_tuple(self):
        S = random_almost_commuting(3, 12, 0.4, 17, exact=True)
        U, vals = joint_eigensystem(S)
        assert np.abs(U.conj().T @ U - np.eye(12)).max() < 1e-10
        for j, op in enumerate(S.ops):
            rec = (U * vals[:, j]) @ U.conj().T
            assert np.abs(rec - op.entries).max() < 1e-8

    def test_degenerate_spectrum(self):
        a = herm(np.diag([1.0, 1.0, 2.0]))
        b = herm(np.diag([3.0, 4.0, 5.0]))
        U, vals = joint_eigensystem(OperatorTuple((a, b), norm_bound=5.0))
        got = {tuple(np.round(v, 6)) for v in vals}
        assert got == {(1.0, 3.0), (1.0, 4.0), (2.0, 5.0)}

