"""Brick-lattice geometry and planar topology of spectrum regions.

Bricks are closed axis-aligned cubes of side 1/k with corners on the
lattice; a point on a shared face belongs to every touching brick.  The
planar topology pass rasterizes a region, flood-fills the complement with
4-connectivity (the region itself uses 8-connectivity), and reports one
representative test point per bounded complement component ("hole").
"""
from __future__ import annotations

import copy
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyInputError,
    EmptyRegionError,
    InvalidInputError,
    ResourceLimitError,
    UnsupportedDimensionError,
    as_index,
)
from .synthetic_spectrum import BallUnion, _check_cap, raster_axes, unique_rows

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BrickSet:
    """Finite union of closed 1/k-bricks inside [-1, 1]^n, by corner."""

    n: int
    k: int
    corners: np.ndarray  # integer lattice corners, shape (m, n); brick = [m/k, (m+1)/k]

    def __post_init__(self):
        n = as_index(self.n, "dimension must be an integer >= 1", 1)
        c = np.asarray(self.corners)
        if c.size == 0:
            c = np.zeros((0, n), dtype=int)
        if c.ndim != 2 or c.shape[1] != n:
            raise InvalidInputError("dimension must match the corners")
        k = as_index(self.k, "k must be an integer >= 1", 1)
        if not (np.isfinite(c).all() and (c == np.round(c)).all()):
            raise InvalidInputError("corners must be integers")
        if c.size and (c.min() < -k or c.max() > k - 1):
            raise InvalidInputError("bricks must stay inside [-1, 1]^n")
        c = unique_rows(c.astype(int))
        c.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "corners", c)

    @property
    def is_empty(self) -> bool:
        return self.corners.shape[0] == 0

    def corner_points(self) -> np.ndarray:
        return self.corners / self.k

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """Mask of the points within 1e-12 of some brick."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.is_empty:
            return np.zeros(pts.shape[0], dtype=bool)
        if (2 * self.k) ** self.n > np.iinfo(np.int64).max:
            raise ResourceLimitError("%d^%d brick keys overflow int64"
                                     % (2 * self.k, self.n))
        cand, valid = _touching_bricks(pts, self.k, 1e-12 * self.k)
        shape = (2 * self.k,) * self.n
        # sorted corners ravel to sorted keys, so membership is a binary search
        keys = np.ravel_multi_index(tuple((self.corners + self.k).T), shape)
        flat = np.ravel_multi_index(tuple(np.moveaxis(cand + self.k, -1, 0)),
                                    shape, mode="clip")
        pos = np.minimum(np.searchsorted(keys, flat), keys.size - 1)
        return (valid & (keys[pos] == flat)).any(axis=1)

    def raster_mask(self, axes: list) -> np.ndarray:
        """``contains_points`` over the raster ``axes`` (ij order).

        Each axis's touching range is computed once per coordinate, with
        ``_touching_bricks``'s arithmetic, and a node reads the occupancy
        table of the (2k)^n bricks at its candidates, refused above the grid
        cap (``region_topology``'s raster has at least 100 times as many
        nodes).  At DEBUG the module logger prints ``cells``, ``decided`` (all
        of them) and ``queried`` (0).
        """
        _check_cap((2 * self.k) ** self.n)
        occ = np.zeros((2 * self.k,) * self.n, dtype=bool)
        occ[tuple((self.corners + self.k).T)] = True
        ranges = [_touching_bricks(a[:, None], self.k, 1e-12 * self.k)
                  for a in axes]
        mask = np.zeros([a.size for a in axes], dtype=bool)
        for offs in np.ndindex(*[cand.shape[1] for cand, _ in ranges]):
            # candidate o of each axis, where it lies in that axis's range
            sel = [(cand[:, o, 0] + self.k, valid[:, o])
                   for (cand, valid), o in zip(ranges, offs)]
            hit = occ[np.ix_(*[np.clip(c, 0, 2 * self.k - 1) for c, _ in sel])]
            for axis, (_, v) in enumerate(sel):
                hit &= v.reshape([-1 if i == axis else 1
                                  for i in range(self.n)])
            mask |= hit
        log.debug("raster cells=%d decided=%d queried=0", mask.size, mask.size)
        return mask

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k, "corners": self.corner_points().tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "BrickSet":
        try:
            n = as_index(obj["n"], "n must be an integer >= 1", 1)
            k = as_index(obj["k"], "k must be an integer >= 1", 1)
            corners = np.asarray(obj["corners"], dtype=float).reshape(-1, n)
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError("malformed brick-set JSON: %s" % exc)
        if not np.isfinite(corners).all():
            raise InvalidInputError("corners must be finite")
        lat = corners * k
        if lat.size and np.abs(lat - np.round(lat)).max() > 1e-9:
            raise InvalidInputError("corners are off the 1/k lattice")
        return cls(n, k, np.round(lat).astype(int))


def brick_cover(X: np.ndarray, k: int) -> BrickSet:
    """Union of all 1/k-bricks whose closed box intersects the point set X.

    Points on shared faces belong to every touching brick, so X is covered
    and every brick of the result meets X.
    """
    pts = np.atleast_2d(np.asarray(X, dtype=float))
    if pts.size == 0:
        raise EmptyInputError("brick cover of an empty point set")
    as_index(k, "k must be an integer >= 1", 1)
    n = pts.shape[1]
    if not np.isfinite(pts).all() or np.abs(pts).max() > 1.0 + 1e-12:
        raise InvalidInputError("points must lie in [-1, 1]^n")
    cand, valid = _touching_bricks(pts, k, 1e-9)
    return BrickSet(n, k, cand[valid])


def _touching_bricks(pts: np.ndarray, k: int, slack: float):
    """Corners of the 1/k-bricks whose closed box, grown by ``slack``/k, holds
    each point.

    Along an axis with t = x*k the touching bricks are m in
    [ceil(t - slack) - 1, floor(t + slack)], clipped to [-k, k-1].  Returns
    candidate corners, shape (points, w**n, n) with w the widest range, and
    a mask of the candidates inside each point's ranges.
    """
    t = pts * k
    lo = np.maximum(np.ceil(t - slack).astype(int) - 1, -k)
    hi = np.minimum(np.floor(t + slack).astype(int), k - 1)
    w = max(1, int((hi - lo).max()) + 1)
    n = pts.shape[1]
    offs = np.stack(np.meshgrid(*([np.arange(w)] * n), indexing="ij"),
                    axis=-1).reshape(-1, n)
    cand = lo[:, None, :] + offs[None]
    return cand, (cand <= hi[:, None, :]).all(axis=2)


@dataclass(frozen=True)
class Hole:
    representative: np.ndarray
    cell_count: int


@dataclass(frozen=True)
class RegionTopology:
    component_count: int
    holes: tuple
    resolution: float

    def to_json(self) -> dict:
        return {
            "component_count": self.component_count,
            "holes": [
                {
                    "representative": h.representative.tolist(),
                    "cell_count": h.cell_count,
                }
                for h in self.holes
            ],
            "resolution": float(self.resolution),
        }


_STRUCT_8 = np.ones((3, 3), dtype=bool)
_STRUCT_4 = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def region_topology(R, resolution: float) -> RegionTopology:
    """Connected components and bounded holes of a planar region.

    Rasterizes [-1, 1]^2 and all ball centers with a 2r margin (r = ball
    radius or 1/k) by ``R.raster_mask(axes)``: a node within eta of a center,
    or within 1e-12 of a brick.  Labels the region with 8-connectivity and
    its complement with 4-connectivity; complement components not touching
    the frame are the holes.  The representative of a hole is a deepest cell
    (max distance to the region), tie-broken toward the hole centroid.
    """
    if isinstance(R, BallUnion):
        n, r, c = R.n, R.eta, R.centers
    elif isinstance(R, BrickSet):
        n, r, c = R.n, 1.0 / R.k, np.zeros((1, R.n))  # bricks stay in [-1, 1]^n
    else:
        raise InvalidInputError("expected a BallUnion or BrickSet")
    if R.is_empty:
        raise EmptyRegionError("topology of an empty region")
    if n != 2:
        raise UnsupportedDimensionError("topology is implemented for n = 2 only")
    if not 0 < resolution <= r / 10 + 1e-12:
        raise InvalidInputError("resolution must lie in (0, r/10]")
    from scipy import ndimage

    lo = np.minimum(c.min(axis=0), -1.0) - 2 * r
    hi = np.maximum(c.max(axis=0), 1.0) + 2 * r
    axes = raster_axes(lo, hi + resolution / 2, resolution)
    mask = R.raster_mask(axes)
    if not mask.any():
        raise EmptyRegionError("region rasterized to nothing; lower resolution")

    _, ncomp = ndimage.label(mask, structure=_STRUCT_8)
    comp_labels, _ = ndimage.label(~mask, structure=_STRUCT_4)
    border = np.zeros_like(mask)
    border[0, :] = border[-1, :] = border[:, 0] = border[:, -1] = True
    unbounded = set(np.unique(comp_labels[border & ~mask]))

    holes = []
    for lbl, box in enumerate(ndimage.find_objects(comp_labels), 1):
        if lbl in unbounded:
            continue
        # only the hole's bounding box grown by one cell is scanned: a cell
        # next to a hole cell is in the hole or in R, so walking from a hole
        # cell toward any cell of R outside that box meets a nearer one in it
        box = tuple(slice(sl.start - 1, sl.stop + 1) for sl in box)
        cells = comp_labels[box] == lbl
        idx = np.argwhere(cells) + [sl.start for sl in box]
        depth = ndimage.distance_transform_edt(~mask[box])[cells] * resolution
        dmax = depth.max()
        cand = idx[depth >= dmax - 1e-12]
        centroid = idx.mean(axis=0)
        best = cand[np.argmin(np.linalg.norm(cand - centroid, axis=1))]
        rep = np.array([axes[0][best[0]], axes[1][best[1]]])
        # pockets at a ball union's tangency cusps, under a cell from R, are
        # raster artifacts; a brick set's hole cells lie a cell or more from R
        if isinstance(R, BallUnion) and R.distance_to_points(rep[None])[0] < resolution:
            continue
        holes.append(Hole(representative=rep, cell_count=int(cells.sum())))
    holes.sort(key=lambda h: (h.representative[0], h.representative[1]))
    return RegionTopology(component_count=int(ncomp), holes=tuple(holes),
                          resolution=resolution)


def dilate(R: BallUnion, r: float) -> BallUnion:
    """Grow every ball radius by r: a copy of R that shares its centers,
    grid, lattice and any KD-tree, with radius eta + r."""
    eta = R.eta + r  # finite only when r is, since R.eta is
    if not (r >= 0 and math.isfinite(eta)):
        raise InvalidInputError("dilation radius must be >= 0 and keep the "
                                "radius finite")
    out = copy.copy(R)
    object.__setattr__(out, "eta", eta)
    return out
