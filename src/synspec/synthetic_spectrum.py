"""Grid-based synthetic spectra of Hermitian tuples.

The eta-synthetic-spectrum is the union of closed eta-balls around the
lattice points where the fixed-order product of bump functions applied to
the tuple has norm >= 1-eta.  Evaluation works in the per-operator
eigenbases, which keeps each bump factor low-rank and lets the grid sweep
prune whole prefixes whose partial product already falls below threshold
(sound: appending a contraction cannot increase the norm).  The sweep goes
one axis at a time and keeps the Gram matrix of each prefix's product.  A
(prefix, candidate) pair is dropped by the exact Frobenius norm of its
product; ``eigvalsh`` of its Gram matrix scores the rest and becomes the next
state.  Chunks of ``_BATCH`` pairs bound memory beyond the stored prefixes.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .errors import (
    EmptyRegionError,
    InvalidInputError,
    InvalidWitnessError,
    ResourceLimitError,
    UnsupportedDimensionError,
)
from .operator_core import (
    HermitianMatrix,
    OperatorTuple,
    dedupe_points,
    joint_eigensystem,
    pairwise_commutator_norms,
    spectral_norm,
)

DEFAULT_GRID_CAP = 2 ** 24
BORDERLINE_TOL = 1e-9
# (prefix, candidate) pairs the sweep bounds or eigensolves at once
_BATCH = 2048

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class GridSpec:
    """Lattice of pitch 1/k covering [-M, M]^n, with k tied to eta.

    k is exactly the least integer l with (M+1)/l < eta/(1+2*sqrt(n)).
    """

    n: int
    M: float
    eta: float
    k: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInputError("ambient dimension must be >= 1")
        if not 0 < self.eta < 1:
            raise InvalidInputError("eta must lie in (0, 1)")
        if self.M <= 0:
            raise InvalidInputError("M must be positive")
        if self.k < 1:
            raise InvalidInputError("k must be >= 1")

    @classmethod
    def create(cls, n: int, M: float, eta: float) -> "GridSpec":
        """Grid with the canonical denominator k tied to eta."""
        return cls(n, float(M), float(eta), _lattice_denominator(n, M, eta))

    @property
    def m_max(self) -> int:
        return int(math.floor(self.M * self.k + 1e-9))

    @property
    def point_count(self) -> int:
        return (2 * self.m_max + 1) ** self.n

    def axis_coords(self) -> np.ndarray:
        m = self.m_max
        return np.arange(-m, m + 1) / self.k


def _lattice_denominator(n: int, M: float, eta: float) -> int:
    if not 0 < eta < 1:
        raise InvalidInputError("eta must lie in (0, 1)")
    bound = eta / (1 + 2 * math.sqrt(n))
    k = max(1, int(math.floor((M + 1) / bound)))
    while (M + 1) / k >= bound:
        k += 1
    while k > 1 and (M + 1) / (k - 1) < bound:
        k -= 1
    return k


def _check_cap(n, cap: int = DEFAULT_GRID_CAP) -> None:
    if n > cap:
        raise ResourceLimitError("grid has %.0f points, above the cap %d" % (n, cap))


def raster_axes(lo, hi, step: float) -> list:
    """``np.arange(lo[i], hi[i], step)`` per axis, refused above the grid cap."""
    with np.errstate(over="ignore"):
        _check_cap(np.prod(np.ceil((np.asarray(hi) - lo) / step)))
    return [np.arange(a, b, step) for a, b in zip(lo, hi)]


def unique_rows(a: np.ndarray) -> np.ndarray:
    """The distinct rows of a finite 2-D array in lexicographic order."""
    step = np.diff(a, axis=0)
    first = (step != 0).argmax(axis=1)[:, None]
    if (np.take_along_axis(step, first, axis=1) > 0).all():
        return a.copy()  # already strictly increasing, as the sweep emits
    a = a[np.lexsort(a.T[::-1])]
    return a[(np.diff(a, axis=0, prepend=np.nan) != 0).any(axis=1)]


def grid_points(spec: GridSpec) -> np.ndarray:
    """All lattice points of the spec, in lexicographic order."""
    _check_cap(spec.point_count)
    c = spec.axis_coords()
    grids = np.meshgrid(*([c] * spec.n), indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, spec.n)


@dataclass(frozen=True)
class BallUnion:
    """Finite union of closed balls of common radius eta."""

    n: int
    eta: float
    centers: np.ndarray
    grid: GridSpec | None = None

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=float)
        if c.size == 0:
            c = np.zeros((0, self.n))
        if c.ndim == 1:
            c = c[:, None]
        if self.n < 1 or c.shape[1] != self.n:
            raise InvalidInputError("dimension must be >= 1 and match the centers")
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise InvalidInputError("radius must be finite and positive")
        if not np.isfinite(c).all():
            raise InvalidInputError("centers must be finite")
        c = unique_rows(c)
        if self.grid is not None and c.size:
            lat = c * self.grid.k
            if np.abs(lat - np.round(lat)).max() > 1e-9:
                raise InvalidInputError("centers are off the lattice")
        c.setflags(write=False)
        object.__setattr__(self, "centers", c)

    @property
    def is_empty(self) -> bool:
        return self.centers.shape[0] == 0

    @cached_property
    def tree(self) -> cKDTree:
        """KD-tree over the centers, built on first use."""
        return cKDTree(self.centers)

    def distance_to_points(self, points: np.ndarray) -> np.ndarray:
        """Euclidean distance from each query point to the ball union."""
        if self.is_empty:
            raise EmptyRegionError("distance to an empty region is undefined")
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d, _ = self.tree.query(pts)
        return np.maximum(0.0, d - self.eta)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "eta": float(self.eta),
            "k": None if self.grid is None else self.grid.k,
            "centers": self.centers.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BallUnion":
        try:
            n = int(obj["n"])
            eta = float(obj["eta"])
            centers = np.asarray(obj["centers"], dtype=float).reshape(-1, n)
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError("malformed ball-union JSON: %s" % exc)
        return cls(n, eta, centers)


def bump_weights(coords: np.ndarray, eigvals: np.ndarray, eta: float) -> np.ndarray:
    """theta_{c,eta}(lambda) for every coord c (rows) and eigenvalue (cols)."""
    d = np.abs(eigvals[None, :] - coords[:, None])
    return np.clip((eta - d) * (4.0 / eta), 0.0, 1.0)


def _axis_order(order: tuple | None, n: int) -> tuple:
    """``order``, or the identity when it is None; it must permute the axes."""
    idx = tuple(order) if order is not None else tuple(range(n))
    if sorted(idx) != list(range(n)):
        raise InvalidInputError("order must be a permutation of the axes")
    return idx


def _bump_matrix(A: HermitianMatrix, c: float, eta: float) -> np.ndarray:
    """theta_{c,eta}(A) = U theta(L) U*, from A's cached A = U L U*."""
    w, U = A.eigh
    xs = [c - eta, c - 0.75 * eta, c + 0.75 * eta, c + eta]
    out = (U * np.interp(w, xs, [0.0, 1.0, 1.0, 0.0])) @ U.conj().T
    return (out + out.conj().T) / 2


def big_theta_norm(T: OperatorTuple, xi, eta: float,
                   order: tuple | None = None) -> float:
    """Norm of the ordered bump product theta(T_1) theta(T_2) ... theta(T_n)."""
    if not eta > 0:
        raise InvalidInputError("eta must be positive")
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.size != T.n:
        raise InvalidInputError("point dimension does not match the tuple")
    lim = T.norm_bound + eta
    if np.abs(xi).max() > lim + 1e-12:
        raise InvalidInputError("point lies outside [-M-eta, M+eta]^n")
    prod = None
    for i in _axis_order(order, T.n):
        m = _bump_matrix(T.ops[i], float(xi[i]), eta)
        prod = m if prod is None else prod @ m
    return spectral_norm(prod)


def synthetic_spectrum(T: OperatorTuple, eta: float, *,
                       order: tuple | None = None,
                       grid_cap: int = DEFAULT_GRID_CAP) -> BallUnion:
    """Centers of the grid where the ordered bump product has norm >= 1-eta.

    Borderline centers within 1e-9 of the threshold are included.  The
    sweep prunes grid prefixes whose partial product norm is already below
    threshold; pruning never changes the result, as
    ``verify.matches_pointwise_oracle`` checks against ``big_theta_norm``.
    """
    spec = GridSpec.create(T.n, T.norm_bound, eta)
    _check_cap(spec.point_count, grid_cap)
    coords = spec.axis_coords()
    idx = _axis_order(order, T.n)
    eigs = [np.linalg.eigh(T.ops[i].entries) for i in idx]
    W = [bump_weights(coords, w, eta) for w, _ in eigs]
    centers = _pruned_sweep(coords, eigs, W, (1.0 - eta) - BORDERLINE_TOL)
    if order is not None:
        centers = centers[:, np.argsort(idx)]
    return BallUnion(T.n, eta, centers, spec)


def _supports(w: np.ndarray, U: np.ndarray):
    """Front-packed bump supports: zero-padded weights, indices, columns."""
    supp = w > 0
    m = int(supp.sum(axis=1).max())
    # stable argsort moves each row's support indices to the front
    order = np.argsort(~supp, axis=1, kind="stable")[:, :m]
    ws = np.take_along_axis(w, order, axis=1)
    return ws, order, U[:, order].transpose(1, 0, 2)


def _pruned_sweep(coords, eigs, W, thresh) -> np.ndarray:
    n = len(eigs)
    pass_idx = [np.nonzero(Wa.max(axis=1) >= thresh)[0] for Wa in W]
    if n == 1:
        return coords[pass_idx[0]][:, None]
    if any(p.size == 0 for p in pass_idx):
        return np.zeros((0, n))
    # prefix i has coordinate indices cs[i] and running product P_i with
    # P_i* P_i = B G_i B*, B = Us[last[i]]; G_i is zero in B's padded columns
    ws, _, Us = _supports(W[0][pass_idx[0]], eigs[0][1])
    G = ws[:, :, None] ** 2 * np.eye(ws.shape[1])
    cs, last = pass_idx[0][:, None], np.arange(len(Us))
    for axis in range(1, n):
        U, cand = eigs[axis][1], pass_idx[axis]
        wc = W[axis][cand]
        # Kh[j] = U* B_j = K_j*, shared by the prefixes that end in candidate j
        Kh = U.conj().T @ Us
        ws, order, Us = _supports(wc, U)
        step = max(1, _BATCH // cand.size)
        kept, nxt, solved = [np.zeros((2, 0), dtype=int)], [], 0
        for lo in range(0, len(G), step):
            Khb = Kh[last[lo:lo + step]]
            KH = Khb @ G[lo:lo + step]
            # ||P theta||^2 <= ||P theta||_F^2 = sum_j wc_j^2 (K* G K)_jj
            ub2 = (KH * Khb.conj()).sum(axis=2).real @ (wc ** 2).T
            pi, ci = np.nonzero(ub2 >= thresh ** 2)
            solved += pi.size
            for plo in range(0, pi.size, _BATCH):
                p, c = pi[plo:plo + _BATCH], ci[plo:plo + _BATCH]
                # Gram matrix diag(w) K_s* G K_s diag(w), s the candidate's support;
                # its top eigenvalue is ||P theta||^2 (eigvalsh reads one triangle)
                w = ws[c][:, :, None]
                rows = p[:, None], order[c]
                M = (Khb[rows] * w) @ (KH[rows] * w).conj().transpose(0, 2, 1)
                ev = np.linalg.eigvalsh(M)[:, -1]
                sel = np.sqrt(np.clip(ev, 0.0, None)) >= thresh
                kept.append(np.stack([lo + p[sel], c[sel]]))
                if axis < n - 1:
                    nxt.append(M[sel])
        p, c = np.concatenate(kept, axis=1)
        log.debug("sweep axis %d: prefixes=%d bounded_out=%d eigensolved=%d "
                  "survivors=%d", axis, len(G), len(G) * cand.size - solved,
                  solved, p.size)
        if p.size == 0:
            return np.zeros((0, n))
        cs = np.hstack([cs[p], cand[c][:, None]])
        if axis < n - 1:
            G, last = np.concatenate(nxt), c
    return coords[cs]


def hausdorff_distance(A: BallUnion, B: BallUnion, resolution: float) -> float:
    """Discrete Hausdorff distance between rasterized ball unions.

    Rasterizes both regions on a common cubic grid of the given pitch; the
    result is within sqrt(n)*resolution of the true Hausdorff distance and
    symmetric by construction.
    """
    if A.n != B.n:
        raise InvalidInputError("ambient dimensions differ")
    if not 0 < resolution < np.inf:
        raise InvalidInputError("resolution must be positive and finite")
    if A.is_empty or B.is_empty:
        raise EmptyRegionError("Hausdorff distance to an empty region")
    n = A.n
    lo = np.minimum(A.centers.min(axis=0) - A.eta, B.centers.min(axis=0) - B.eta)
    hi = np.maximum(A.centers.max(axis=0) + A.eta, B.centers.max(axis=0) + B.eta)
    axes = raster_axes(lo - resolution, hi + 2 * resolution, resolution)
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack(grids, axis=-1).reshape(-1, n)
    shape = grids[0].shape
    mask_a = (A.distance_to_points(pts) <= 1e-12).reshape(shape)
    mask_b = (B.distance_to_points(pts) <= 1e-12).reshape(shape)
    if not mask_a.any() or not mask_b.any():
        raise EmptyRegionError("a region rasterized to nothing; lower resolution")
    dist_to_b = ndimage.distance_transform_edt(~mask_b) * resolution
    dist_to_a = ndimage.distance_transform_edt(~mask_a) * resolution
    d_ab = float(dist_to_b[mask_a].max())
    d_ba = float(dist_to_a[mask_b].max())
    return max(d_ab, d_ba)


@dataclass(frozen=True)
class NearSpectrumWitness:
    """Joint spectrum of a commuting tuple, witnessing a nearby tuple."""

    points: np.ndarray
    S: OperatorTuple
    eta: float


@dataclass(frozen=True)
class WitnessReport:
    witness: NearSpectrumWitness
    distances: tuple
    max_distance: float
    valid: bool


COMMUTING_TOL = 1e-10


def near_spectrum_witness(T: OperatorTuple, S: OperatorTuple,
                          eta: float) -> WitnessReport:
    """Witness report for T built from an exactly commuting tuple S.

    The witness set is the joint spectrum of S.  The induced evaluation map
    is a homomorphism, so the multiplicativity defect is 0 and the lower
    norm condition holds automatically; the report carries neither.  The
    witness is valid iff every coordinate distance ||S_j - T_j|| is below
    eta.
    """
    if T.n != S.n or T.dim != S.dim:
        raise InvalidInputError("tuples do not match in shape")
    if not 0 < eta < 1:
        raise InvalidInputError("eta must lie in (0, 1)")
    comms = pairwise_commutator_norms(S)
    if comms.size and comms.max() > COMMUTING_TOL:
        raise InvalidWitnessError(
            "witness tuple is not commuting (max commutator %.3e)" % comms.max()
        )
    _, vals = joint_eigensystem(S)
    points = dedupe_points(vals)
    distances = tuple(
        spectral_norm(S.ops[j].entries - T.ops[j].entries) for j in range(T.n)
    )
    max_distance = max(distances)
    witness = NearSpectrumWitness(points, S, eta)
    return WitnessReport(witness=witness, distances=distances,
                         max_distance=max_distance, valid=max_distance < eta)


def _sphere_samples(n: int, radius: float, resolution: float) -> np.ndarray:
    """Deterministic samples covering the radius-r sphere at the given pitch."""
    if n == 1:
        return np.array([[-radius], [radius]])
    if n == 2:
        m = max(8, int(math.ceil(2 * math.pi * radius / resolution)))
        t = 2 * math.pi * np.arange(m) / m
        return radius * np.stack([np.cos(t), np.sin(t)], axis=1)
    if n == 3:
        m = max(32, int(math.ceil(4 * math.pi * radius ** 2 / resolution ** 2)))
        i = np.arange(m) + 0.5
        phi = math.pi * (3 - math.sqrt(5)) * i
        z = 1 - 2 * i / m
        r = np.sqrt(np.clip(1 - z ** 2, 0, None))
        return radius * np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    raise UnsupportedDimensionError("boundary sampling supports n <= 3")


def containment_check(inner, outer: BallUnion, slack: float) -> bool:
    """True iff every point of ``inner`` lies within ``slack`` of ``outer``.

    Distances are compared with 1e-9 of rounding slack on top.  ``inner``
    is a finite point set or a BallUnion; for a BallUnion the centers are
    tried first via the sufficient ball-in-ball criterion and only the
    failures fall back to boundary sampling at pitch eta/20.
    """
    if isinstance(inner, BallUnion):
        if inner.n != outer.n:
            raise InvalidInputError("ambient dimensions differ")
        if inner.is_empty:
            return True
        if outer.is_empty:
            return False
        d, _ = outer.tree.query(inner.centers)
        easy = d + inner.eta <= outer.eta + slack + 1e-9
        if easy.all():
            return True
        hard = inner.centers[~easy]
        shell = _sphere_samples(inner.n, inner.eta, inner.eta / 20)
        for c in hard:
            pts = np.vstack([c[None, :], c[None, :] + shell])
            if (outer.distance_to_points(pts) > slack + 1e-9).any():
                return False
        return True
    pts = np.atleast_2d(np.asarray(inner, dtype=float))
    if pts.shape[1] != outer.n:
        raise InvalidInputError("ambient dimensions differ")
    if pts.shape[0] == 0:
        return True
    if outer.is_empty:
        return False
    return bool((outer.distance_to_points(pts) <= slack + 1e-9).all())
