import json

import numpy as np
import pytest

from synspec import (
    HermitianMatrix,
    InvalidInputError,
    OperatorTuple,
    ResourceLimitError,
    commutator_norm,
    joint_diagonalize,
    joint_eigensystem,
    op_norm,
    pairwise_commutator_norms,
    random_almost_commuting,
    random_hermitian,
    spectral_norm,
)
from synspec.operator_core import _op_norms
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

    @pytest.mark.parametrize("dim", [4097, 10 ** 12])
    def test_dense_matrix_cap(self, dim):
        # refused before numpy is asked for the matrix
        with pytest.raises(ResourceLimitError, match="above the cap"):
            random_almost_commuting(2, dim, 1e-2, 0)

    @pytest.mark.parametrize("n, dim", [(2.5, 4), (2, 4.0), (True, 4), (2, True)])
    def test_non_integral_sizes_rejected(self, n, dim):
        with pytest.raises(InvalidInputError, match="must be an integer"):
            random_almost_commuting(n, dim, 1e-2, 0)

    @pytest.mark.parametrize("dim, norm, error", [
        (-1, 1.0, InvalidInputError), (0, 1.0, InvalidInputError),
        (2.5, 1.0, InvalidInputError), (True, 1.0, InvalidInputError),
        (4097, 1.0, ResourceLimitError), (10 ** 12, 1.0, ResourceLimitError),
        (4, -1.0, InvalidInputError), (4, float("nan"), InvalidInputError),
        (4, float("inf"), InvalidInputError)])
    def test_random_hermitian_checks_before_drawing(self, dim, norm, error):
        # -1 gave numpy's bare ValueError and norm=-1.0 a matrix of norm 1
        rng = np.random.default_rng(3)
        with pytest.raises(error):
            random_hermitian(dim, rng, norm)
        assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state

    @pytest.mark.parametrize("norm", [0.0, 0.5, 2.0])
    def test_random_hermitian_norm(self, norm):
        h = random_hermitian(np.int64(5), np.random.default_rng(7), norm)
        assert op_norm(h) == pytest.approx(norm, abs=1e-12)

    def test_numpy_integer_sizes(self):
        a = random_almost_commuting(np.int64(2), np.int64(6), 1e-2, 42)
        b = random_almost_commuting(2, 6, 1e-2, 42)
        for x, y in zip(a.ops, b.ops):
            assert np.array_equal(x.entries, y.entries)


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

    def test_equals_per_cluster_loop(self):
        largest = {}
        for family, T in commuting_corpus():
            U, vals = joint_eigensystem(T)
            U0, vals0, sizes = reference_joint_eigensystem(T)
            assert U.tobytes() == U0.tobytes(), (family, T.n, T.dim)
            assert vals.tobytes() == vals0.tobytes(), (family, T.n, T.dim)
            if family == "repeated" and T.dim > 2 ** (T.n - 1):
                # at most 2**j clusters after j operators
                assert min(sizes) > 1, (T.n, T.dim)
            largest[family] = max(largest.get(family, 1), max(sizes))
        assert min(largest.values()) > 1


def reference_joint_eigensystem(T):
    """``joint_eigensystem`` one cluster at a time, with the largest cluster
    each operator is restricted to."""
    dim = T.dim
    U = np.eye(dim, dtype=complex)
    vals = np.zeros((dim, T.n))
    blocks, sizes = [np.arange(dim)], []
    for j, op in enumerate(T.ops):
        sizes.append(max(blk.size for blk in blocks))
        new_blocks = []
        for blk in blocks:
            Ub = U[:, blk]
            sub = Ub.conj().T @ op.entries @ Ub
            sub = (sub + sub.conj().T) / 2
            w, V = np.linalg.eigh(sub)
            U[:, blk] = Ub @ V
            vals[blk, j] = w
            start = 0
            for i in range(1, blk.size):
                if w[i] - w[i - 1] > 1e-8:
                    new_blocks.append(blk[start:i])
                    start = i
            new_blocks.append(blk[start:])
        blocks = new_blocks
    return U, vals, sizes


def commuting_corpus():
    """(family, tuple) for n = 1..3 and dims 1..24: exactly commuting tuples,
    ones whose eigenvalues repeat (each operator takes only +-1/2), and
    Jacobi outputs of almost commuting ones; 336 tuples."""
    for n in (1, 2, 3):
        for dim in range(1, 25):
            for seed in (0, 1):
                yield "exact", random_almost_commuting(n, dim, 0.5, 100 * dim + seed,
                                                       exact=True)
                rng = np.random.default_rng([n, dim, seed])
                Q = np.linalg.qr(rng.standard_normal((dim, dim))
                                 + 1j * rng.standard_normal((dim, dim)))[0]
                yield "repeated", OperatorTuple(tuple(
                    herm((Q * rng.choice([-0.5, 0.5], dim)) @ Q.conj().T)
                    for _ in range(n)))
            if dim % 2 or n == 1:
                T = random_almost_commuting(n, dim, 1e-2, 1000 + dim)
                yield "jacobi", joint_diagonalize(T, max_sweeps=20).S



Z2 = [[0.0, 0.0], [0.0, 0.0]]


def op_json(re, im=Z2, dim=2):
    return {"dim": dim, "re": re, "im": im}


# every message as the loader printed it before the norm check was batched
RAGGED = ("malformed matrix JSON: setting an array element with a sequence. "
          "The requested array has an inhomogeneous shape after 1 dimensions. "
          "The detected shape was (2,) + inhomogeneous part.")


class TestTupleLoader:
    @pytest.mark.parametrize("obj, message", [
        ({"M": 1.0, "ops": [op_json([[np.nan, 0.0], [0.0, 0.0]])]},
         "matrix has non-finite entries"),
        ({"M": 1.0, "ops": [op_json(Z2, [[0.0, np.inf], [-np.inf, 0.0]])]},
         "matrix has non-finite entries"),
        ({"M": 1.0, "ops": [op_json([[np.inf, np.nan], [np.nan, 0.0]])]},
         "matrix has non-finite entries"),
        ({"M": 1.0, "ops": [op_json([[0.0, 0.5], [0.0, 0.0]])]},
         "matrix is not self-adjoint (deviation 5.000e-01)"),
        ({"M": 1.0, "ops": [op_json([[0.5, 0.0], [0.0, 0.5]]),
                            op_json([[0.0, 1.5], [1.5, 0.0]])]},
         "operator norm exceeds the bound M=1"),
        ({"M": 0.25, "ops": [op_json([[0.5, 0.0], [0.0, 0.0]])]},
         "operator norm exceeds the bound M=0.25"),
        ({"M": 1.0, "ops": [op_json(Z2), op_json([[0.0]], [[0.0]], 1)]},
         "operators do not share a dimension"),
        ({"M": 1.0, "ops": [op_json(Z2, dim=3)]},
         "matrix JSON arrays do not match dim"),
        ({"M": 1.0, "ops": [op_json([[0.0, 0.0], [0.0]])]}, RAGGED),
        ({"M": 1.0, "ops": [op_json(Z2, [[0.0], [0.0, 0.0]])]}, RAGGED),
        ({"M": 1.0, "ops": []}, "empty operator tuple"),
        ({"M": np.nan, "ops": [op_json(Z2)]},
         "norm bound must be finite and positive"),
        ({"ops": [op_json(Z2)]}, "malformed tuple JSON: 'M'"),
    ], ids=["nan", "inf-imag", "inf-and-nan", "non-hermitian", "norm-above-M",
            "norm-above-quarter", "mismatched-dims", "dim-vs-arrays",
            "ragged-re", "ragged-im", "empty", "M-nan", "missing-M"])
    def test_refusals_keep_their_messages(self, obj, message):
        with pytest.raises(InvalidInputError) as exc:
            OperatorTuple.from_json(json.loads(json.dumps(obj)))
        assert str(exc.value) == message

    @pytest.mark.parametrize("dim, side", [(2.5, 2), (2.0, 2), (True, 1),
                                           ("2", 2)])
    def test_non_integral_dim_rejected(self, dim, side):
        # int() read 2.5 as a dim-2 matrix and true as dim 1
        zero = np.zeros((side, side)).tolist()
        with pytest.raises(InvalidInputError, match="dim must be an integer"):
            HermitianMatrix.from_json({"dim": dim, "re": zero, "im": zero})

    def test_stacked_norms_equal_op_norm(self):
        rng = np.random.default_rng(19)
        for t in range(320):
            n, dim = int(rng.integers(1, 5)), int(rng.integers(1, 13))
            if t % 2:
                ops = random_almost_commuting(n, dim, 0.1, t).ops
            else:
                ops = tuple(random_hermitian(dim, rng, rng.uniform(0.1, 3.0))
                            for _ in range(n))
            got = _op_norms(ops)
            assert got.tobytes() == np.array([op_norm(op) for op in ops]).tobytes()
