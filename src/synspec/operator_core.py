"""Hermitian matrices, norms and commutators, and tuple generators.

The ambient operator model is a dense complex self-adjoint matrix.  Inputs
are symmetrized as (A + A*)/2 on ingestion and rejected only when the
deviation from self-adjointness exceeds 1e-12 relative to the entry scale
(JSON round-trip noise stays below that).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, as_index

HERMITIZATION_TOL = 1e-12


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class HermitianMatrix:
    """Dense complex self-adjoint matrix."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise InvalidInputError("expected a square matrix of dim >= 1")
        # max propagates NaN and inf, so one reduction also checks finiteness
        amax = float(np.abs(a).max())
        if not math.isfinite(amax):
            raise InvalidInputError("matrix has non-finite entries")
        scale = 1.0 + amax
        ah = a.conj().T
        dev = float(np.abs(a - ah).max())
        if dev > HERMITIZATION_TOL * scale:
            raise InvalidInputError(
                "matrix is not self-adjoint (deviation %.3e)" % dev
            )
        object.__setattr__(self, "entries", _as_readonly((a + ah) / 2))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def eigh(self) -> tuple:
        """Read-only (eigenvalues, eigenvectors), computed on first use."""
        return tuple(_as_readonly(a) for a in np.linalg.eigh(self.entries))

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "re": self.entries.real.tolist(),
            "im": self.entries.imag.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "HermitianMatrix":
        try:
            dim = as_index(obj["dim"], "matrix dim must be an integer")
            re = np.asarray(obj["re"], dtype=float)
            im = np.asarray(obj["im"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError("malformed matrix JSON: %s" % exc)
        if re.shape != (dim, dim) or im.shape != (dim, dim):
            raise InvalidInputError("matrix JSON arrays do not match dim")
        a = re.astype(complex)
        a.imag = im  # re + 1j * im would turn an imaginary -0.0 into 0.0
        return cls(a)


@dataclass(frozen=True)
class OperatorTuple:
    """Ordered tuple of Hermitian matrices sharing a dimension and bound M."""

    ops: tuple
    norm_bound: float = 1.0

    def __post_init__(self):
        ops = tuple(self.ops)
        if not ops:
            raise InvalidInputError("empty operator tuple")
        dims = {op.dim for op in ops}
        if len(dims) != 1:
            raise InvalidInputError("operators do not share a dimension")
        if not (math.isfinite(self.norm_bound) and self.norm_bound > 0):
            raise InvalidInputError("norm bound must be finite and positive")
        if _op_norms(ops).max() > self.norm_bound + 1e-9:
            raise InvalidInputError(
                "operator norm exceeds the bound M=%g" % self.norm_bound
            )
        object.__setattr__(self, "ops", ops)

    @property
    def n(self) -> int:
        return len(self.ops)

    @property
    def dim(self) -> int:
        return self.ops[0].dim

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "dim": self.dim,
            "M": float(self.norm_bound),
            "ops": [op.to_json() for op in self.ops],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "OperatorTuple":
        try:
            ops = tuple(HermitianMatrix.from_json(o) for o in obj["ops"])
            M = float(obj["M"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError("malformed tuple JSON: %s" % exc)
        return cls(ops, M)


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value of an arbitrary dense matrix."""
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def op_norm(A: HermitianMatrix) -> float:
    """Operator norm of a Hermitian matrix: largest absolute eigenvalue."""
    w = np.linalg.eigvalsh(A.entries)
    return float(np.abs(w).max())


def _op_norms(ops) -> np.ndarray:
    """``op_norm`` of each of the same-dim ``ops``, from one stacked eigvalsh."""
    w = np.linalg.eigvalsh(np.stack([op.entries for op in ops]))
    return np.abs(w).max(axis=1)


def commutator_norm(A: HermitianMatrix, B: HermitianMatrix) -> float:
    """Operator norm of AB - BA."""
    if A.dim != B.dim:
        raise InvalidInputError("dimension mismatch in commutator")
    c = A.entries @ B.entries - B.entries @ A.entries
    return spectral_norm(c)


def pairwise_commutator_norms(T: OperatorTuple) -> np.ndarray:
    """Upper-triangular pairwise commutator norms, flattened."""
    out = []
    for i in range(T.n):
        for j in range(i + 1, T.n):
            out.append(commutator_norm(T.ops[i], T.ops[j]))
    return np.asarray(out)


def _random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    # fix column phases for determinism across LAPACK sign choices
    d = np.diagonal(r)
    ph = d / np.abs(d)
    return q * ph.conj()


def random_hermitian(dim: int, rng: np.random.Generator,
                     norm: float = 1.0) -> HermitianMatrix:
    """Random dense Hermitian matrix rescaled to the given operator norm."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2
    s = spectral_norm(h)
    if s > 0:
        h = h * (norm / s)
    return HermitianMatrix(h)


def random_almost_commuting(n: int, dim: int, delta: float, seed: int,
                            exact: bool = False) -> OperatorTuple:
    """Deterministic generator of tuples with pairwise commutators < delta.

    A commuting tuple (simultaneously diagonal in a random common unitary
    basis, eigenvalues in [-1+delta, 1-delta]) is perturbed by independent
    Hermitian errors of operator norm delta/5 each, so every operator is a
    contraction (norm <= 1 - 4*delta/5).  This scale keeps the commutator
    bound 4*delta/5 + 2*delta^2/25 strictly below delta.  With ``exact=True``
    the perturbation is skipped and the commutators are exactly zero.
    """
    if n < 1 or dim < 1:
        raise InvalidInputError("n and dim must be >= 1")
    if not 0 < delta < 1:
        raise InvalidInputError("delta must lie in (0, 1)")
    seed = as_index(seed, "seed must be an integer >= 0", 0)
    rng = np.random.default_rng(seed)
    U = _random_unitary(dim, rng)
    ops = []
    for _ in range(n):
        lam = rng.uniform(-1 + delta, 1 - delta, size=dim)
        a = (U * lam) @ U.conj().T
        a = (a + a.conj().T) / 2
        if not exact:
            a = a + random_hermitian(dim, rng, norm=delta / 5).entries
        ops.append(HermitianMatrix(a))
    return OperatorTuple(tuple(ops), norm_bound=1.0)


def joint_eigensystem(T: OperatorTuple):
    """Common eigenbasis of an (exactly) commuting tuple.

    Returns (U, vals) with U unitary and vals of shape (dim, n):
    row i holds the joint eigenvalue vector of basis column i.  Built by
    recursive eigenspace refinement: diagonalize the first operator, then
    diagonalize each following operator restricted to the eigenvalue
    clusters accumulated so far.
    """
    dim = T.dim
    U = np.eye(dim, dtype=complex)
    vals = np.zeros((dim, T.n))
    blocks = [np.arange(dim)]
    for j, op in enumerate(T.ops):
        new_blocks = []
        for blk in blocks:
            Ub = U[:, blk]
            sub = Ub.conj().T @ op.entries @ Ub
            sub = (sub + sub.conj().T) / 2
            w, V = np.linalg.eigh(sub)
            U[:, blk] = Ub @ V
            vals[blk, j] = w
            # split the block at eigenvalue gaps above 1e-8
            start = 0
            for i in range(1, blk.size):
                if w[i] - w[i - 1] > 1e-8:
                    new_blocks.append(blk[start:i])
                    start = i
            new_blocks.append(blk[start:])
        blocks = new_blocks
    return U, vals

