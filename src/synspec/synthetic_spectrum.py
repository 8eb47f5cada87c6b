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
A kept pair's Gram matrix becomes the next level's state.  Each level
forms one change of basis between consecutive eigenbases, and a chunk
gathers its prefixes' blocks from its columns.  One byte budget,
``_CHUNK_BYTES``, sizes both the chunks of prefixes bounded at once and the
batches of Gram matrices formed at once, so beyond the stored prefix states
only that d x d matrix lies outside the budget.  The sweep yields integer
grid nodes, which ``BallUnion.from_nodes`` turns into centers and lattice
keys without a float round trip.
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
# bytes of working arrays one prefix chunk or one Gram batch of the sweep holds
_CHUNK_BYTES = 2 ** 21

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
        return a.copy()  # already strictly increasing
    a = a[np.lexsort(a.T[::-1])]
    return a[(np.diff(a, axis=0, prepend=np.nan) != 0).any(axis=1)]


def _node_keys(q: np.ndarray, spec: GridSpec) -> np.ndarray:
    """Mixed-radix int64 key of each row of integral node coordinates, each in
    [-m_max, m_max]; below 2**62 when the spec has fewer points."""
    m = spec.m_max
    d = q.astype(np.int64) + m
    key = d[:, 0]
    for i in range(1, spec.n):
        key = key * (2 * m + 1) + d[:, i]
    return key


def grid_points(spec: GridSpec) -> np.ndarray:
    """All lattice points of the spec, in lexicographic order."""
    _check_cap(spec.point_count)
    c = spec.axis_coords()
    grids = np.meshgrid(*([c] * spec.n), indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, spec.n)


@dataclass(frozen=True)
class BallUnion:
    """Finite union of closed balls of common radius eta.

    A union built by ``from_nodes`` also carries its ``grid`` and its
    ``lattice``, the sorted int64 keys of its centers' nodes, row for row;
    any other union has neither.
    """

    n: int
    eta: float
    centers: np.ndarray
    grid: GridSpec | None = field(default=None, init=False)
    lattice: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        n = as_index(self.n, "dimension must be an integer >= 1", 1)
        c = np.asarray(self.centers, dtype=float)
        if c.size == 0:
            c = np.zeros((0, n))
        if c.ndim == 1:
            c = c[:, None]
        if c.shape[1] != n:
            raise InvalidInputError("dimension must match the centers")
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise InvalidInputError("radius must be finite and positive")
        if not np.isfinite(c).all():
            raise InvalidInputError("centers must be finite")
        c = unique_rows(c)
        c.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "centers", c)

    @classmethod
    def from_nodes(cls, spec: GridSpec, eta: float, nodes) -> "BallUnion":
        """The union of eta-balls on integer ``nodes`` of ``spec``, each
        coordinate in [-m_max, m_max], as the sweeps compute them;
        other nodes raise InvalidInputError.

        The centers are ``nodes / spec.k``, bit for bit the ``axis_coords``
        at those nodes.  Rows are sorted and made distinct only when their
        node keys do not already increase, and the keys become ``lattice``
        at once.  With 2**62 nodes or more the rows are sorted as
        ``unique_rows`` does, and ``lattice`` is None.
        """
        nodes = np.asarray(nodes).reshape(-1, spec.n)
        # float magnitudes: no integer abs to overflow, rounding is monotone
        if nodes.dtype.kind not in "iu" or (
                np.abs(nodes.astype(float)).max(initial=0.0) > spec.m_max):
            raise InvalidInputError("nodes must be integers in [-m_max, m_max]")
        lattice = None
        if spec.point_count < 2 ** 62:
            lattice = _node_keys(nodes, spec)
            if not (lattice[1:] > lattice[:-1]).all():
                order = np.argsort(lattice)
                keep = order[np.diff(lattice[order], prepend=-1) != 0]
                nodes, lattice = nodes[keep], lattice[keep]
        else:
            nodes = unique_rows(nodes)
        c = nodes / spec.k
        c.setflags(write=False)
        union = object.__new__(cls)  # __post_init__'s checks hold by construction
        union.__dict__.update(n=spec.n, eta=eta, centers=c, grid=spec,
                              lattice=lattice)
        return union

    @property
    def is_empty(self) -> bool:
        return self.centers.shape[0] == 0

    @cached_property
    def tree(self):
        """``scipy.spatial.cKDTree`` over the centers, built on first use."""
        from scipy.spatial import cKDTree
        return cKDTree(self.centers)

    def center_at_node(self, points: np.ndarray) -> tuple:
        """(row, hit) for finite points: where ``hit``, ``centers[row]`` lies
        on the point's nearest ``grid`` node, found by ``searchsorted`` in
        ``lattice``.  A node outside the grid, a node with no center, or a
        union with no ``lattice`` is no hit."""
        count, keys = points.shape[0], self.lattice
        if keys is None or keys.size == 0:
            return np.zeros(count, dtype=int), np.zeros(count, dtype=bool)
        m = self.grid.m_max
        with np.errstate(over="ignore"):
            q = np.round(points * self.grid.k)
        inside = np.abs(q) <= m
        off = not inside.all()
        # a node off the grid is clipped before the integer cast, and is no hit
        want = _node_keys(np.clip(q, -m, m) if off else q, self.grid)
        row = np.minimum(np.searchsorted(keys, want), keys.size - 1)
        hit = keys[row] == want
        if off:
            hit &= inside.all(axis=1)
        return row, hit

    def distance_to_points(self, points: np.ndarray) -> np.ndarray:
        """Euclidean distance from each query point to the ball union."""
        if self.is_empty:
            raise EmptyRegionError("distance to an empty region is undefined")
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d, _ = self.tree.query(pts)
        return np.maximum(0.0, d - self.eta)

    def raster_mask(self, axes: list, slack: float = 0.0) -> np.ndarray:
        """Mask of the nodes of the raster ``axes`` (ij order) whose distance d
        to the nearest center has d - eta <= ``slack``.

        The exact Euclidean distance transform (Maurer, Qi & Raghavan 2003)
        of the centers snapped to their nearest nodes gives each node a
        distance ds within e of d, with e the largest snap plus the nodes'
        rounding, so ds <= eta - e is inside and ds > bound + e is outside;
        bound, just above eta + 2*slack, admits every d that passes.  Only the
        band between meets a KD-tree query.  With slack 0 the test is d <= eta,
        since a correctly rounded d - eta keeps the sign of the exact one.  At
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
        bound = np.nextafter(self.eta + 2 * slack, np.inf)
        mask = ds <= self.eta - e
        band = np.nonzero(~mask & (ds <= bound + e))
        pts = np.stack([a[i] for a, i in zip(axes, band)], axis=1)
        d, _ = self.tree.query(pts, distance_upper_bound=bound)
        mask[band] = d - self.eta <= slack
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


def _bump_matrix(A: HermitianMatrix, c: float, eta: float) -> np.ndarray:
    """theta_{c,eta}(A) = U theta(L) U*, from A's cached A = U L U*."""
    w, U = A.eigh
    xs = [c - eta, c - 0.75 * eta, c + 0.75 * eta, c + eta]
    out = (U * np.interp(w, xs, [0.0, 1.0, 1.0, 0.0])) @ U.conj().T
    return (out + out.conj().T) / 2


def big_theta_norm(T: OperatorTuple, xi, eta: float) -> float:
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
    for op, c in zip(T.ops, xi):
        m = _bump_matrix(op, float(c), eta)
        prod = m if prod is None else prod @ m
    return spectral_norm(prod)


def synthetic_spectrum(T: OperatorTuple, eta: float, *,
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
    eigs = [op.eigh for op in T.ops]
    W = [bump_weights(coords, w, eta) for w, _ in eigs]
    nodes = _pruned_sweep(eigs, W, inclusion_threshold(eta)) - spec.m_max
    return BallUnion.from_nodes(spec, eta, nodes)


def _supports(w: np.ndarray):
    """Front-packed bump supports: zero-padded weights and their indices."""
    supp = w > 0
    m = int(supp.sum(axis=1).max())
    # stable argsort moves each row's support indices to the front
    order = np.argsort(~supp, axis=1, kind="stable")[:, :m]
    return np.take_along_axis(w, order, axis=1), order


def _pruned_sweep(eigs, W, thresh) -> np.ndarray:
    """Coordinate indices, one row per kept grid point, in lexicographic
    order of the axes."""
    n = len(eigs)
    pass_idx = [np.nonzero(Wa.max(axis=1) >= thresh)[0] for Wa in W]
    if n == 1:
        return pass_idx[0][:, None]
    if any(p.size == 0 for p in pass_idx):
        return np.zeros((0, n), dtype=int)
    # prefix i has coordinate indices cs[i] and running product P_i with
    # P_i* P_i = B G_i B*, B the previous eigenbasis at supp[i], the support
    # of its last factor; G_i is zero in B's padded columns
    ws, supp = _supports(W[0][pass_idx[0]])
    G = ws[:, :, None] ** 2 * np.eye(ws.shape[1])
    cs = pass_idx[0][:, None]
    for axis in range(1, n):
        U, cand = eigs[axis][1], pass_idx[axis]
        wc = W[axis][cand]
        # one change of basis per level: K_i* = U* B = C[:, supp[i]]
        C = U.conj().T @ eigs[axis - 1][1]
        ws, order = _supports(wc)
        d, m0, m = U.shape[0], G.shape[1], ws.shape[1]
        # a prefix holds Khb, KH and their product (d x m0 complex each) and
        # a row of trace bounds; a Gram pair holds its two gathers (m x m0
        # complex each) and the matrix (m x m)
        step = max(1, _CHUNK_BYTES // (48 * d * m0 + 8 * cand.size))
        batch = max(1, _CHUNK_BYTES // (16 * m * (2 * m0 + m)))
        mid = axis < n - 1
        kept, nxt, passed, solved = [np.zeros((2, 0), dtype=int)], [], 0, 0
        for lo in range(0, len(G), step):
            Khb = C[:, supp[lo:lo + step]].transpose(1, 0, 2)
            KH = Khb @ G[lo:lo + step]
            # ||P theta||^2 is the top eigenvalue of the Gram matrix, which lies
            # between its largest diagonal term and its trace, the Frobenius norm
            # ||P theta||_F^2 = sum_j wc_j^2 (K* G K)_jj
            dg = (KH * Khb.conj()).sum(axis=2).real
            ub2 = dg @ (wc ** 2).T
            pi, ci = np.nonzero(ub2 >= thresh ** 2)
            passed += pi.size
            for plo in range(0, pi.size, batch):
                p, c = pi[plo:plo + batch], ci[plo:plo + batch]
                sel = (dg[p[:, None], order[c]] * ws[c] ** 2).max(axis=1) >= thresh ** 2
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
            return np.zeros((0, n), dtype=int)
        cs = np.hstack([cs[p], cand[c][:, None]])
        if mid:
            G, supp = np.concatenate(nxt), order[c]
    return cs


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
    mask_a, mask_b = (R.raster_mask(axes, 1e-12) for R in (A, B))
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

    A ball whose nearest node of ``outer.grid`` holds an outer center passes
    when it fits that center's ball 1e-12 inside the limit, so the nearest
    center passes too; only the other balls meet a KD-tree query, and the
    tree is built only then.  At DEBUG the module logger prints ``inner``,
    ``decided`` and ``queried``.
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
    lim = outer.eta + slack + 1e-9
    row, hit = outer.center_at_node(pts)
    diff = pts - outer.centers.take(row, axis=0)
    done = hit & (np.sqrt(np.einsum("ij,ij->i", diff, diff)) + r <= lim - 1e-12)
    queried = pts.shape[0] - np.count_nonzero(done)
    log.debug("containment inner=%d decided=%d queried=%d", pts.shape[0],
              pts.shape[0] - queried, queried)
    if queried == 0:
        return True
    d, _ = outer.tree.query(pts[~done])
    return bool((d + r <= lim).all())
