"""Triple obstruction certificates and commuting approximants.

The obstruction certificate for a Hermitian triple (H1, H2, H3) is the
2d x 2d block matrix

    B = [[H3, H1 - i H2], [H1 + i H2, -H3]]

whose half-signature is an integer.  Perturbing each H_j by less than gap/3
moves B by less than the gap, so a nonzero value certifies that no
commuting triple lies within gap/3 in each coordinate (see
``certified_distance_bound``).  The commuting approximant search is a
Jacobi-type simultaneous diagonalization.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    GaplessCertificateError,
    InvalidInputError,
    NoObstructionError,
    _check_cap,
    as_index,
)
from .operator_core import (
    HermitianMatrix,
    OperatorTuple,
    spectral_norm,
)
from .region_geometry import region_topology
from .symbol_models import SymbolOperator, _circle, fredholm_index
from .synthetic_spectrum import (
    BallUnion,
    GridSpec,
    bump,
    inclusion_threshold,
)

CERTIFICATE_GAP_FLOOR = 1e-8
CIRCLE_SAMPLES = 4096

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BottReport:
    """Bott value, certificate gap, and the distance bound gap/3."""

    value: int
    gap: float
    bound: float

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "gap": float(self.gap),
            "certified_lower_bound": float(self.bound),
        }


def certificate_matrix(H1: HermitianMatrix, H2: HermitianMatrix,
                       H3: HermitianMatrix) -> np.ndarray:
    if not (H1.dim == H2.dim == H3.dim):
        raise InvalidInputError("certificate needs a shared dimension")
    a, b, c = H1.entries, H2.entries, H3.entries
    d = H1.dim
    B = np.empty((2 * d, 2 * d), dtype=complex)
    B[:d, :d], B[:d, d:] = c, a - 1j * b
    B[d:, :d], B[d:, d:] = a + 1j * b, -c
    return B


def bott_index(H1: HermitianMatrix, H2: HermitianMatrix,
               H3: HermitianMatrix) -> BottReport:
    """Half-signature of the certificate matrix, with its spectral gap."""
    B = certificate_matrix(H1, H2, H3)
    w = np.linalg.eigvalsh(B)
    gap = float(np.abs(w).min())
    if gap <= CERTIFICATE_GAP_FLOOR:
        raise GaplessCertificateError(
            "certificate is singular (gap %.3e); no index defined" % gap
        )
    npos = int((w > 0).sum())
    nneg = int((w < 0).sum())
    return BottReport(value=(npos - nneg) // 2, gap=gap, bound=gap / 3)


def spin_triple(j: float) -> OperatorTuple:
    """Normalized spin triple (Jx/j, Jy/j, Jz/j) in the (2j+1)-dim rep."""
    twoj = round(2 * j) if math.isfinite(j) else 0
    if abs(2 * j - twoj) > 1e-12 or twoj < 1:
        raise InvalidInputError("j must be a half-integer >= 1/2")
    j = twoj / 2
    dim = twoj + 1
    _check_cap(dim * dim, what="one dense matrix would hold %s entries")
    m = j - np.arange(dim)  # basis ordered m = j, j-1, ..., -j
    jz = np.diag(m.astype(complex))
    jp = np.zeros((dim, dim), dtype=complex)
    for i in range(1, dim):
        mm = m[i]
        jp[i - 1, i] = math.sqrt(j * (j + 1) - mm * (mm + 1))
    jx = (jp + jp.conj().T) / 2
    jy = (jp - jp.conj().T) / 2j
    ops = tuple(HermitianMatrix(a / j) for a in (jx, jy, jz))
    return OperatorTuple(ops, norm_bound=1.0)


def certified_distance_bound(H: OperatorTuple) -> BottReport:
    """The triple's Bott report, whose ``bound`` gap/3 is a lower bound on
    the distance to every commuting triple.

    A triple S within gap/3 per coordinate keeps the certificate invertible
    along the linear interpolation (||dB|| <= sum ||dH_j|| < gap), so its
    value matches the nonzero value here.  If S commutes, its certificate,
    invertible, has value 0: on a joint eigenvector with eigenvalues x it
    acts as x . sigma, whose eigenvalues are +|x| and -|x|.
    """
    if H.n != 3:
        raise InvalidInputError("distance bound is defined for triples")
    rep = bott_index(*H.ops)
    if rep.value == 0:
        raise NoObstructionError("Bott value is 0; no lower bound certified")
    return rep


@dataclass(frozen=True)
class ApproximantReport:
    S: OperatorTuple
    distances: tuple
    max_distance: float
    sweeps: int
    off_diag_residual: float
    objective_trace: tuple = ()
    stop_reason: str = "converged"

    def to_json(self) -> dict:
        return {
            "S": self.S.to_json(),
            "distances": [float(d) for d in self.distances],
            "max_distance": float(self.max_distance),
            "sweeps": self.sweeps,
            "off_diag_residual": float(self.off_diag_residual),
            "objective_trace": [float(x) for x in self.objective_trace],
            "stop_reason": self.stop_reason,
        }


def _off2(mats) -> float:
    total = 0.0
    for a in mats:
        total += float((np.abs(a) ** 2).sum() - (np.abs(np.diagonal(a)) ** 2).sum())
    return total


def _round_robin(d: int) -> np.ndarray:
    """Round-robin schedule (Brent & Luk 1985) as a (2, rounds, d // 2) array.

    Index 0 stays put while the others turn around a ring; an odd d gets a
    dummy index d, whose pairs are dropped.  Each round's pairs p < q are
    disjoint, and a sweep meets every pair exactly once.
    """
    m = d + d % 2
    ring, rounds = np.arange(m), []
    for _ in range(m - 1):
        pq = np.sort([ring[:m // 2], ring[::-1][:m // 2]], axis=0)
        rounds.append(pq[:, pq[1] < d])
        ring = np.concatenate([ring[:1], ring[-1:], ring[1:-1]])
    return np.stack(rounds, axis=1)


def _rotate_round(X: np.ndarray, n: int, p: np.ndarray, q: np.ndarray) -> None:
    """Apply the rotations of one round of disjoint pairs (p, q) in place.

    Each angle is the closed-form 2x2 minimizer of the joint off-diagonal
    objective (Cardoso & Souloumiac 1996), the top eigenvector of the
    pair's 3x3 Gram matrix.  A rotation touches only rows and columns p, q,
    so one batched eigh gives every angle, and the round is applied as
    A <- R A R* on X[:n] and U <- U R* on X[n].  The sign fix makes x >= 0,
    so the denominator of s is >= sqrt(2); only |s| < 1e-16 skips a pair.
    """
    A = X[:n]
    apq = A[:, p, q]
    h = np.stack([(A[:, p, p] - A[:, q, q]).real, 2 * apq.real, 2 * apq.imag],
                 axis=-1).transpose(1, 0, 2)
    _, V = np.linalg.eigh(h.transpose(0, 2, 1) @ h)
    x, y, z = np.where(V[:, :1, -1] < 0, -V[:, :, -1], V[:, :, -1]).T
    c, s = np.sqrt((x + 1.0) / 2.0), (y - 1j * z) / np.sqrt(2.0 * (x + 1.0))
    turn = np.abs(s) >= 1e-16
    p, q, c, s = p[turn], q[turn], c[turn], s[turn]
    ap, aq = A[:, p], A[:, q]
    A[:, p] = c[:, None] * ap + np.conj(s)[:, None] * aq
    A[:, q] = -s[:, None] * ap + c[:, None] * aq
    xp, xq = X[:, :, p], X[:, :, q]
    X[:, :, p] = c * xp + s * xq
    X[:, :, q] = -np.conj(s) * xp + c * xq


def joint_diagonalize(T: OperatorTuple,
                      max_sweeps: int = 200) -> ApproximantReport:
    """Jacobi-type simultaneous diagonalization; output commutes exactly.

    A sweep is the d - 1 rounds (d when d is odd) of a round-robin
    schedule, each round rotating disjoint index pairs in one batched step
    on the (n+1, d, d) stack of tuple and basis U.  Disjoint rotations
    commute, so a round equals its rotations applied one at a time and the
    objective never rises.  Stops when a sweep improves the objective by
    less than 1e-12 ("converged") or after max_sweeps, then returns
    S_j = U diag(U* T_j U) U*.
    """
    max_sweeps = as_index(max_sweeps, "need max_sweeps >= 1", 1)
    d, n = T.dim, T.n
    X = np.stack([op.entries for op in T.ops] + [np.eye(d, dtype=complex)])
    A, U = X[:n], X[n]
    schedule = _round_robin(d)
    off = _off2(A)
    trace = [off]
    stop_reason = "max_sweeps"
    for sweeps in range(1, max_sweeps + 1):
        for p, q in zip(*schedule):
            _rotate_round(X, n, p, q)
        new_off = _off2(A)
        trace.append(new_off)
        gain = off - new_off
        off = new_off
        if gain < 1e-12:
            stop_reason = "converged"
            break
    mats = (U * np.diagonal(A, axis1=1, axis2=2).real[:, None]) @ U.conj().T
    S = OperatorTuple(tuple(HermitianMatrix(a) for a in mats),
                      norm_bound=T.norm_bound + 1e-6)
    distances = tuple(spectral_norm(t.entries - s.entries)
                      for t, s in zip(T.ops, S.ops))
    return ApproximantReport(S=S, distances=distances,
                             max_distance=max(distances), sweeps=sweeps,
                             off_diag_residual=math.sqrt(max(off, 0.0)),
                             objective_trace=tuple(trace),
                             stop_reason=stop_reason)


@dataclass(frozen=True)
class HoleVerdict:
    lam: complex
    index: int
    passed: bool


@dataclass(frozen=True)
class IndexCheckReport:
    verdict: bool
    holes: tuple
    spectrum: BallUnion
    sampling_error_bound: float

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "holes": [
                {
                    "lambda": [h.lam.real, h.lam.imag],
                    "index": h.index,
                    "passed": h.passed,
                }
                for h in self.holes
            ],
            "spectrum": self.spectrum.to_json(),
            "sampling_error_bound": float(self.sampling_error_bound),
        }


def scalar_synthetic_spectrum(op: SymbolOperator, eta: float) -> tuple:
    """Synthetic spectrum of the symbol pair (Re s, Im s) on the circle.

    The quotient model is commutative, so the operator norm of the bump
    product is the sup over the curve, approximated on CIRCLE_SAMPLES
    points of the circle.  Returns (BallUnion, sampling error bound) where
    the bound is the observed modulus of continuity of the sampled curve.
    A grid above DEFAULT_GRID_CAP points raises ResourceLimitError.

    A grid point (c1, c2) is a center when some sample s has
    fl(w1 * w2) >= threshold, w_i = theta_{c_i,eta}(a_i(s)).  Weights lie in
    [0, 1], so fl(w1 * w2) <= w1: only rows where w1 reaches the threshold
    can score.  Computed weights fall monotonically in |a - c|, so a
    sample's plateau rows (w1 == 1) and the columns a row scores are runs.
    The plateau rows all score the columns where w2 reaches the threshold,
    one rectangle per sample; only the fringe rows (w1 < 1) are multiplied
    out, one row each.  A 2-D difference array unites the rectangles.  At
    DEBUG the module logger prints ``samples``, ``plateau`` and ``fringe``,
    the (row, sample) pairs of each kind.
    """
    spec = GridSpec.create(2, 1.0, eta)
    curve = op.eval(_circle(CIRCLE_SAMPLES))
    a1, a2 = curve.real, curve.imag
    if max(np.abs(a1).max(), np.abs(a2).max()) > 1 + 1e-9:
        raise InvalidInputError(
            "symbol values leave [-1,1]^2; rescale the coefficients"
        )
    _check_cap(spec.point_count)
    coords = spec.axis_coords()
    g = coords.size
    thresh = inclusion_threshold(eta)
    (lo1, w1), (lo2, w2) = (_bump_window(coords, a, eta) for a in (a1, a2))
    # a sample's plateau rows (w1 == 1) score its run of columns where w2
    # reaches the threshold, one rectangle per sample; a fringe pair
    # (threshold <= w1 < 1) scores the run of its products, one row
    p0, p1, plateau = _runs(w1 == 1.0)
    c0, c1, scores = _runs(w2 >= thresh)
    on = plateau & scores
    s, off = np.nonzero((w1 >= thresh) & (w1 < 1.0))
    f0, f1, hit = _runs(w1[s, off, None] * w2[s] >= thresh)
    s, off = s[hit], off[hit]
    rows = (np.concatenate([lo1[on] + p0[on], lo1[s] + off]),
            np.concatenate([lo1[on] + p1[on], lo1[s] + off + 1]))
    cols = (np.concatenate([lo2[on] + c0[on], lo2[s] + f0[hit]]),
            np.concatenate([lo2[on] + c1[on], lo2[s] + f1[hit]]))
    # +1 at each rectangle's near and far corners, -1 at the other two, so
    # a 2-D prefix sum counts the rectangles over each grid point
    at = [r * (g + 1) + c for r in rows for c in cols]
    size = (g + 1) ** 2
    cover = (np.bincount(np.concatenate([at[0], at[3]]), minlength=size)
             - np.bincount(np.concatenate([at[1], at[2]]), minlength=size))
    cover = cover.reshape(g + 1, g + 1).cumsum(axis=0).cumsum(axis=1)
    i1, i2 = np.nonzero(cover[:g, :g] > 0)
    log.debug("quotient spectrum samples=%d plateau=%d fringe=%d", a1.size,
              (p1 - p0)[plateau].sum(), hit.size)
    region = BallUnion.from_nodes(spec, eta, np.stack([i1, i2], 1) - spec.m_max)
    hop = float(np.abs(np.diff(np.append(curve, curve[0]))).max())
    return region, hop


def _bump_window(coords: np.ndarray, vals: np.ndarray, eta: float) -> tuple:
    """Each value's bump weights over the coords within eta of it.

    Returns (lo, w): value j weighs coords[lo[j] + t] by w[j, t], which is
    ``bump``'s value, and every coord outside its window by 0.  Windows share
    one width and are shifted to stay inside the grid.
    """
    first = np.searchsorted(coords, vals - eta) - 1
    width = min(int((np.searchsorted(coords, vals + eta, "right") + 1
                     - first).max()), coords.size)
    lo = np.clip(first, 0, coords.size - width)
    idx = lo[:, None] + np.arange(width)
    return lo, bump(coords[idx], vals[:, None], eta)


def _runs(hit: np.ndarray) -> tuple:
    """Per row of ``hit``: the first True column, one past the last, any."""
    return (hit.argmax(axis=1), hit.shape[1] - hit[:, ::-1].argmax(axis=1),
            hit.any(axis=1))


def index_hypothesis_check(op: SymbolOperator, eta: float) -> IndexCheckReport:
    """Test that the winding index vanishes in every hole of the
    quotient-side synthetic spectrum, found on a raster of pitch eta/10;
    a nonzero index in any hole fails."""
    region, hop = scalar_synthetic_spectrum(op, eta)
    topo = region_topology(region, eta / 10)
    holes = []
    for hole in topo.holes:
        lam = complex(hole.representative[0], hole.representative[1])
        rep = fredholm_index(op, lam)
        holes.append(HoleVerdict(lam=lam, index=rep.index,
                                 passed=rep.index == 0))
    verdict = all(h.passed for h in holes)
    return IndexCheckReport(verdict=verdict, holes=tuple(holes),
                            spectrum=region, sampling_error_bound=hop)
