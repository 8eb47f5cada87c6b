"""Brick-lattice geometry and planar topology of spectrum regions.

Bricks are closed axis-aligned cubes of side 1/k with corners on the
lattice; a point on a shared face belongs to every touching brick.  The
planar topology pass rasterizes a region, flood-fills the complement with
4-connectivity (the region itself uses 8-connectivity), and reports one
representative test point per bounded complement component ("hole").
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import (
    EmptyInputError,
    EmptyRegionError,
    InvalidInputError,
    UnsupportedDimensionError,
)
from .synthetic_spectrum import BallUnion, raster_axes, unique_rows


@dataclass(frozen=True)
class BrickSet:
    """Finite union of closed 1/k-bricks inside [-1, 1]^n, by corner."""

    n: int
    k: int
    corners: np.ndarray  # integer lattice corners, shape (m, n); brick = [m/k, (m+1)/k]

    def __post_init__(self):
        c = np.asarray(self.corners, dtype=int)
        if c.size == 0:
            c = np.zeros((0, self.n), dtype=int)
        if self.n < 1 or c.ndim != 2 or c.shape[1] != self.n:
            raise InvalidInputError("dimension must be >= 1 and match the corners")
        if self.k < 1:
            raise InvalidInputError("k must be >= 1")
        if c.size and (c.min() < -self.k or c.max() > self.k - 1):
            raise InvalidInputError("bricks must stay inside [-1, 1]^n")
        c = unique_rows(c)
        c.setflags(write=False)
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
        cand, valid = _touching_bricks(pts, self.k, 1e-12 * self.k)
        shape = (2 * self.k,) * self.n
        keys = np.ravel_multi_index(tuple((self.corners + self.k).T), shape)
        flat = np.ravel_multi_index(tuple(np.moveaxis(cand + self.k, -1, 0)),
                                    shape, mode="clip")
        return (valid & np.isin(flat, keys)).any(axis=1)

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k, "corners": self.corner_points().tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "BrickSet":
        try:
            n = int(obj["n"])
            k = int(obj["k"])
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
    if k < 1:
        raise InvalidInputError("k must be >= 1")
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
_STRUCT_4 = ndimage.generate_binary_structure(2, 1)


def region_topology(R, resolution: float) -> RegionTopology:
    """Connected components and bounded holes of a planar region.

    Rasterizes on a bounding box with a 2r margin (r = ball radius or
    1/k), labels the region with 8-connectivity and its complement with
    4-connectivity; complement components not touching the frame are the
    holes.  The representative of a hole is a deepest cell (max distance
    to the region), tie-broken toward the hole centroid.
    """
    if isinstance(R, BallUnion):
        n, r = R.n, R.eta
    elif isinstance(R, BrickSet):
        n, r = R.n, 1.0 / R.k
    else:
        raise InvalidInputError("expected a BallUnion or BrickSet")
    if R.is_empty:
        raise EmptyRegionError("topology of an empty region")
    if n != 2:
        raise UnsupportedDimensionError("topology is implemented for n = 2 only")
    if not 0 < resolution <= r / 10 + 1e-12:
        raise InvalidInputError("resolution must lie in (0, r/10]")

    lo, hi = -1.0 - 2 * r, 1.0 + 2 * r
    axes = raster_axes((lo, lo), (hi + resolution / 2,) * 2, resolution)
    xs, ys = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([xs.ravel(), ys.ravel()], axis=1)
    if isinstance(R, BallUnion):
        d, _ = R.tree.query(pts)
        mask = (d <= R.eta).reshape(xs.shape)
    else:
        mask = R.contains_points(pts).reshape(xs.shape)
    if not mask.any():
        raise EmptyRegionError("region rasterized to nothing; lower resolution")

    _, ncomp = ndimage.label(mask, structure=_STRUCT_8)
    comp_labels, nholes = ndimage.label(~mask, structure=_STRUCT_4)
    border = np.zeros_like(mask)
    border[0, :] = border[-1, :] = border[:, 0] = border[:, -1] = True
    unbounded = set(np.unique(comp_labels[border & ~mask]))
    dist = ndimage.distance_transform_edt(~mask) * resolution

    holes = []
    for lbl in range(1, nholes + 1):
        if lbl in unbounded:
            continue
        cells = comp_labels == lbl
        idx = np.argwhere(cells)
        depth = dist[cells]
        dmax = depth.max()
        cand = idx[depth >= dmax - 1e-12]
        centroid = idx.mean(axis=0)
        best = cand[np.argmin(np.linalg.norm(cand - centroid, axis=1))]
        rep = np.array([axes[0][best[0]], axes[1][best[1]]])
        # sub-resolution pockets at tangency cusps are raster artifacts,
        # not holes; a genuine hole keeps its deepest cell clear of R
        if isinstance(R, BallUnion):
            true_dist = float(R.distance_to_points(rep[None, :])[0])
        else:
            true_dist = dmax
        if true_dist < resolution:
            continue
        holes.append(Hole(representative=rep, cell_count=int(cells.sum())))
    holes.sort(key=lambda h: (h.representative[0], h.representative[1]))
    return RegionTopology(component_count=int(ncomp), holes=tuple(holes),
                          resolution=resolution)


def dilate(R: BallUnion, r: float) -> BallUnion:
    """Grow every ball radius by r (same centers)."""
    if r < 0:
        raise InvalidInputError("dilation radius must be >= 0")
    return BallUnion(R.n, R.eta + r, R.centers, R.grid)
