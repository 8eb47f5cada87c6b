"""Grid-based synthetic spectra of Hermitian tuples.

The eta-synthetic-spectrum is the union of closed eta-balls around the
lattice points where the fixed-order product of bump functions applied to
the tuple has norm >= 1-eta.  Evaluation works in the per-operator
eigenbases, which keeps each bump factor low-rank and lets the grid sweep
prune whole prefixes whose partial product already falls below threshold
(sound: appending a contraction cannot increase the norm).  The sweep goes
one axis at a time and keeps the Gram matrix of each prefix's product.  The
squared norm of a (prefix, candidate) pair's product is the top eigenvalue
of its Gram matrix, between the largest diagonal term and the trace: a pair
is rejected when the trace is below threshold^2, accepted when the largest
diagonal term reaches it, and ``eigvalsh`` scores only the pairs in between.
A kept pair's Gram matrix becomes the next level's state.  Chunks of
``_BATCH`` pairs bound memory beyond the stored prefixes.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    EmptyRegionError,
    InvalidInputError,
    InvalidWitnessError,
    ResourceLimitError,
    as_index,
)
from .operator_core import (
    HermitianMatrix,
    OperatorTuple,
    joint_eigensystem,
    pairwise_commutator_norms,
    spectral_norm,
)

DEFAULT_GRID_CAP = 2 ** 24
BORDERLINE_TOL = 1e-9
# (prefix, candidate) pairs the sweep bounds or eigensolves at once
_BATCH = 2048

log = logging.getLogger(__name__)


def inclusion_threshold(eta: float) -> float:
    """Norm at which a grid point joins sSp^eta: 1 - eta, less BORDERLINE_TOL."""
    return (1.0 - eta) - BORDERLINE_TOL


@dataclass(frozen=True)
class GridSpec:
    """Lattice of pitch 1/k covering [-M, M]^n, with k tied to eta.

    k is derived: exactly the least integer l with (M+1)/l < eta/(1+2*sqrt(n)),
    or ResourceLimitError when k, M*k or the point count passes the floats.
    """

    n: int
    M: float
    eta: float
    k: int = field(init=False)

    def __post_init__(self):
        n = as_index(self.n, "ambient dimension must be an integer >= 1", 1)
        if not 0 < self.eta < 1:
            raise InvalidInputError("eta must lie in (0, 1)")
        if not (math.isfinite(self.M) and self.M > 0):
            raise InvalidInputError("M must be positive and finite")
        object.__setattr__(self, "n", n)
        try:
            object.__setattr__(self, "k", _lattice_denominator(n, self.M, self.eta))
            float(self.point_count)
        except OverflowError:
            raise ResourceLimitError("the eta=%g grid on [-%g, %g]^%d has too many "
                                     "points to count" % (self.eta, self.M, self.M, n))

    @classmethod
    def create(cls, n: int, M: float, eta: float) -> "GridSpec":
        """The grid for n axes, bound M and scale eta, taken as floats."""
        return cls(n, float(M), float(eta))

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
    bound = eta / (1 + 2 * math.sqrt(n))
    # (M+1)/k < bound is monotone in k: double, then bisect (OverflowError past floats)
    lo, hi = 0, 1
    while not (M + 1) / hi < bound:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if (M + 1) / mid < bound else (mid, hi)
    return hi


def _check_cap(n, cap: int = DEFAULT_GRID_CAP) -> None:
    if math.isnan(cap):
        raise InvalidInputError("grid cap must not be NaN")
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
    def tree(self):
        """``scipy.spatial.cKDTree`` over the centers, built on first use."""
        from scipy.spatial import cKDTree
        return cKDTree(self.centers)

    def distance_to_points(self, points: np.ndarray) -> np.ndarray:
        """Euclidean distance from each query point to the ball union."""
        if self.is_empty:
            raise EmptyRegionError("distance to an empty region is undefined")
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d, _ = self.tree.query(pts)
        return np.maximum(0.0, d - self.eta)

    def raster_mask(self, axes: list, bound: float, inside) -> np.ndarray:
        """Mask of the nodes of the raster ``axes`` (ij order) whose distance d
        to the nearest center passes ``inside(d)``.

        ``inside`` must hold for d <= eta and fail for d > bound.  The exact
        Euclidean distance transform (Maurer, Qi & Raghavan 2003) of the
        centers snapped to their nearest nodes gives each node a distance ds
        within e of d, with e the largest snap plus the nodes' rounding, so
        ds <= eta - e is inside and ds > bound + e is outside; only the band
        between meets a KD-tree query, which is bounded by ``bound``.  At
        DEBUG the module logger prints ``cells``, ``decided`` and ``queried``.
        """
        from scipy import ndimage
        step = [a[1] - a[0] if a.size > 1 else 1.0 for a in axes]
        idx = [np.clip(np.round((c - a[0]) / s), 0, a.size - 1).astype(int)
               for a, c, s in zip(axes, self.centers.T, step)]
        snap = np.stack([a[i] for a, i in zip(axes, idx)], axis=1) - self.centers
        # node i of an axis lies within dev of a[0] + i*step (np.arange puts it
        # on that line up to rounding), which each axis can add twice to |p-q|
        dev = max(np.abs(a - (a[0] + np.arange(a.size) * s)).max()
                  for a, s in zip(axes, step))
        scale = max(np.abs(a).max() for a in axes)
        e = (np.sqrt((snap ** 2).sum(axis=1)).max() + 2 * self.n * dev
             + 1e-9 * (1.0 + scale))
        free = np.ones([a.size for a in axes], dtype=bool)
        free[tuple(idx)] = False
        ds = ndimage.distance_transform_edt(free, sampling=step)
        mask = ds <= self.eta - e
        band = np.nonzero(~mask & (ds <= bound + e))
        pts = np.stack([a[i] for a, i in zip(axes, band)], axis=1)
        d, _ = self.tree.query(pts, distance_upper_bound=bound)
        mask[band] = inside(d)
        log.debug("raster cells=%d decided=%d queried=%d", mask.size,
                  mask.size - pts.shape[0], pts.shape[0])
        return mask

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
            n = as_index(obj["n"], "n must be an integer >= 1", 1)
            eta = float(obj["eta"])
            centers = np.asarray(obj["centers"], dtype=float).reshape(-1, n)
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError("malformed ball-union JSON: %s" % exc)
        return cls(n, eta, centers)


def bump(c, lam, eta: float) -> np.ndarray:
    """theta_{c,eta}(lambda), elementwise over broadcast c and lambda."""
    return np.clip((eta - np.abs(lam - c)) * (4.0 / eta), 0.0, 1.0)


def bump_weights(coords: np.ndarray, eigvals: np.ndarray, eta: float) -> np.ndarray:
    """theta_{c,eta}(lambda) for every coord c (rows) and eigenvalue (cols)."""
    return bump(coords[:, None], eigvals[None, :], eta)


def _axis_order(order: tuple | None, n: int) -> tuple:
    """``order``, or the identity when it is None; it must permute the axes."""
    if order is None:
        return tuple(range(n))
    message = "order must be a permutation of the axes"
    idx = tuple(as_index(i, message) for i in order)
    if sorted(idx) != list(range(n)):
        raise InvalidInputError(message)
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
    Each (prefix, candidate) pair is rejected by the trace of its Gram
    matrix, accepted by its largest diagonal term, or else eigensolved.  At
    DEBUG the module logger prints, per level, ``prefixes``,
    ``bounded_out``, ``accepted_by_bound``, ``eigensolved`` (the rows
    ``eigvalsh`` receives) and ``survivors``.
    """
    spec = GridSpec.create(T.n, T.norm_bound, eta)
    _check_cap(spec.point_count, grid_cap)
    coords = spec.axis_coords()
    idx = _axis_order(order, T.n)
    eigs = [T.ops[i].eigh for i in idx]
    W = [bump_weights(coords, w, eta) for w, _ in eigs]
    centers = _pruned_sweep(coords, eigs, W, inclusion_threshold(eta))
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
        step, mid = max(1, _BATCH // cand.size), axis < n - 1
        kept, nxt, passed, solved = [np.zeros((2, 0), dtype=int)], [], 0, 0
        for lo in range(0, len(G), step):
            Khb = Kh[last[lo:lo + step]]
            KH = Khb @ G[lo:lo + step]
            # ||P theta||^2 is the top eigenvalue of the Gram matrix, which lies
            # between its largest diagonal term and its trace, the Frobenius norm
            # ||P theta||_F^2 = sum_j wc_j^2 (K* G K)_jj
            dg = (KH * Khb.conj()).sum(axis=2).real
            ub2 = dg @ (wc ** 2).T
            lb2 = (dg[:, order] * ws ** 2).max(axis=2)
            pi, ci = np.nonzero(ub2 >= thresh ** 2)
            passed += pi.size
            for plo in range(0, pi.size, _BATCH):
                p, c = pi[plo:plo + _BATCH], ci[plo:plo + _BATCH]
                sel = lb2[p, c] >= thresh ** 2
                und = np.flatnonzero(~sel)
                # Gram matrix diag(w) K_s* G K_s diag(w), s the candidate's support:
                # a middle level forms it for every pair left, as a kept pair's is
                # the next state; the last level only for the undecided ones
                # (eigvalsh reads one triangle; a chunk with none undecided skips it)
                mp, mc = (p, c) if mid else (p[und], c[und])
                w = ws[mc][:, :, None]
                rows = mp[:, None], order[mc]
                M = (Khb[rows] * w) @ (KH[rows] * w).conj().transpose(0, 2, 1)
                if und.size:
                    ev = np.linalg.eigvalsh(M[und] if mid else M)[:, -1]
                    sel[und] = np.sqrt(np.clip(ev, 0.0, None)) >= thresh
                solved += und.size
                kept.append(np.stack([lo + p[sel], c[sel]]))
                if mid:
                    nxt.append(M[sel])
        p, c = np.concatenate(kept, axis=1)
        log.debug("sweep axis %d: prefixes=%d bounded_out=%d accepted_by_bound=%d "
                  "eigensolved=%d survivors=%d", axis, len(G),
                  len(G) * cand.size - passed, passed - solved, solved, p.size)
        if p.size == 0:
            return np.zeros((0, n))
        cs = np.hstack([cs[p], cand[c][:, None]])
        if mid:
            G, last = np.concatenate(nxt), c
    return coords[cs]


def hausdorff_distance(A: BallUnion, B: BallUnion, resolution: float) -> float:
    """Discrete Hausdorff distance between rasterized ball unions.

    Rasterizes both regions on a common cubic grid of the given pitch; the
    result is within sqrt(n)*resolution of the true Hausdorff distance and
    symmetric by construction.  The pitch may not exceed 2 min(r_A, r_B) /
    sqrt(n), the coarsest at which every ball still holds a raster node.
    """
    if A.n != B.n:
        raise InvalidInputError("ambient dimensions differ")
    n = A.n
    if not 0 < resolution <= 2 * min(A.eta, B.eta) / math.sqrt(n):
        raise InvalidInputError("resolution must lie in (0, 2 min(r_A, r_B) "
                                "/ sqrt(n)], or a ball may hold no node")
    if A.is_empty or B.is_empty:
        raise EmptyRegionError("Hausdorff distance to an empty region")
    from scipy import ndimage
    lo = np.minimum(A.centers.min(axis=0) - A.eta, B.centers.min(axis=0) - B.eta)
    hi = np.maximum(A.centers.max(axis=0) + A.eta, B.centers.max(axis=0) + B.eta)
    axes = raster_axes(lo - resolution, hi + 2 * resolution, resolution)
    # a node lies in R when d - r <= 1e-12 for its distance d to the centers;
    # the bound admits every such d
    mask_a, mask_b = (R.raster_mask(axes, np.nextafter(R.eta + 2e-12, np.inf),
                                    lambda d, r=R.eta: d - r <= 1e-12)
                      for R in (A, B))
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

    The witness set is the distinct rows of S's joint spectrum, sorted.  The
    induced evaluation map is a homomorphism, so the multiplicativity defect
    is 0 and the lower norm condition holds automatically; the report
    carries neither.  The witness is valid iff every coordinate distance
    ||S_j - T_j|| is below eta.
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
    points = unique_rows(vals)
    distances = tuple(
        spectral_norm(S.ops[j].entries - T.ops[j].entries) for j in range(T.n)
    )
    max_distance = max(distances)
    witness = NearSpectrumWitness(points, S, eta)
    return WitnessReport(witness=witness, distances=distances,
                         max_distance=max_distance, valid=max_distance < eta)


def containment_check(inner, outer: BallUnion, slack: float) -> bool:
    """Certify that every point of ``inner`` lies within ``slack`` of ``outer``.

    ``inner`` is a BallUnion or a finite point set, which is a union of
    radius-0 balls.  Each inner ball of radius r must fit in one outer ball
    dilated by ``slack``: d + r <= outer.eta + slack, plus 1e-9 for rounding,
    with d the distance from its center to the nearest outer center.  This
    holds in any dimension, so True is certified.  False means "not
    certified", not "not contained": a ball that only several outer balls
    cover together is not recognised.  All input must be finite, slack >= 0.
    """
    if not (math.isfinite(slack) and slack >= 0):
        raise InvalidInputError("slack must be finite and >= 0")
    if isinstance(inner, BallUnion):
        pts, r = inner.centers, inner.eta
    else:
        pts, r = np.atleast_2d(np.asarray(inner, dtype=float)), 0.0
        if not np.isfinite(pts).all():
            raise InvalidInputError("points must be finite")
    if pts.shape[1] != outer.n:
        raise InvalidInputError("ambient dimensions differ")
    if pts.shape[0] == 0:
        return True
    if outer.is_empty:
        return False
    d, _ = outer.tree.query(pts)
    return bool((d + r <= outer.eta + slack + 1e-9).all())
