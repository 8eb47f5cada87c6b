"""Raster masks, planar topology and Hausdorff distances against references
that decide every raster node on its own: a KD-tree query per node for ball
unions, a sorted-key ``np.isin`` per node for brick sets, and a full scan of
the raster per hole."""
import logging

import numpy as np
import pytest

from synspec import (
    BallUnion,
    BrickSet,
    hausdorff_distance,
    random_almost_commuting,
    region_topology,
    synthetic_spectrum,
)
from synspec.region_geometry import _touching_bricks
from synspec.synthetic_spectrum import raster_axes

# each caller's slack, with a per-node query bound and inside test for it,
# for a ball radius r
TOPOLOGY_RULE = {"slack": 0.0, "bound": lambda r: np.nextafter(r, np.inf),
                 "inside": lambda d, r: d <= r}
HAUSDORFF_RULE = {"slack": 1e-12,
                  "bound": lambda r: np.nextafter(r + 2e-12, np.inf),
                  "inside": lambda d, r: d - r <= 1e-12}


def nodes(axes):
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def reference_ball_mask(R, axes, rule):
    """Query every node, bounded as the raster callers bound it."""
    d, _ = R.tree.query(nodes(axes), distance_upper_bound=rule["bound"](R.eta))
    return rule["inside"](d, R.eta).reshape([a.size for a in axes])


def reference_contains(B, pts):
    """``np.isin`` of each point's touching bricks against the corners."""
    cand, valid = _touching_bricks(pts, B.k, 1e-12 * B.k)
    shape = (2 * B.k,) * B.n
    keys = np.ravel_multi_index(tuple((B.corners + B.k).T), shape)
    flat = np.ravel_multi_index(tuple(np.moveaxis(cand + B.k, -1, 0)), shape,
                                mode="clip")
    return (valid & np.isin(flat, keys)).any(axis=1)


def reference_brick_mask(B, axes):
    return reference_contains(B, nodes(axes)).reshape([a.size for a in axes])


def reference_topology(R, resolution):
    """``region_topology`` with per-node masks and a full scan per hole."""
    from scipy import ndimage
    if isinstance(R, BallUnion):
        r, c = R.eta, R.centers
    else:
        r, c = 1.0 / R.k, np.zeros((1, 2))
    lo = np.minimum(c.min(axis=0), -1.0) - 2 * r
    hi = np.maximum(c.max(axis=0), 1.0) + 2 * r
    axes = raster_axes(lo, hi + resolution / 2, resolution)
    if isinstance(R, BallUnion):
        mask = reference_ball_mask(R, axes, TOPOLOGY_RULE)
    else:
        mask = reference_brick_mask(R, axes)
    _, ncomp = ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))
    labels, nlab = ndimage.label(~mask, structure=[[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    border = np.zeros_like(mask)
    border[0, :] = border[-1, :] = border[:, 0] = border[:, -1] = True
    unbounded = set(np.unique(labels[border & ~mask]))
    dist = ndimage.distance_transform_edt(~mask) * resolution
    holes = []
    for lbl in range(1, nlab + 1):
        if lbl in unbounded:
            continue
        cells = labels == lbl
        idx, depth = np.argwhere(cells), dist[cells]
        cand = idx[depth >= depth.max() - 1e-12]
        best = cand[np.argmin(np.linalg.norm(cand - idx.mean(axis=0), axis=1))]
        rep = np.array([axes[0][best[0]], axes[1][best[1]]])
        if isinstance(R, BallUnion) and R.distance_to_points(rep[None])[0] < resolution:
            continue
        holes.append({"representative": rep.tolist(), "cell_count": int(cells.sum())})
    holes.sort(key=lambda h: tuple(h["representative"]))
    return {"component_count": int(ncomp), "holes": holes,
            "resolution": float(resolution)}


def reference_hausdorff(A, B, resolution):
    """``hausdorff_distance`` with per-node masks."""
    from scipy import ndimage
    lo = np.minimum(A.centers.min(axis=0) - A.eta, B.centers.min(axis=0) - B.eta)
    hi = np.maximum(A.centers.max(axis=0) + A.eta, B.centers.max(axis=0) + B.eta)
    axes = raster_axes(lo - resolution, hi + 2 * resolution, resolution)
    mask_a, mask_b = (reference_ball_mask(R, axes, HAUSDORFF_RULE) for R in (A, B))
    dist_to_b = ndimage.distance_transform_edt(~mask_b) * resolution
    dist_to_a = ndimage.distance_transform_edt(~mask_a) * resolution
    return max(float(dist_to_b[mask_a].max()), float(dist_to_a[mask_b].max()))


def ball_unions(seed, count):
    """Off-lattice unions in the plane: random clouds reaching past [-1, 1]^2,
    rings, near-tangent pairs |c_i - c_j| = 2r +- 1e-12 and lattice points."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        r = float(rng.uniform(0.1, 0.3))
        kind = i % 4
        if kind == 0:
            c = rng.uniform(-1.6, 1.6, size=(int(rng.integers(1, 12)), 2))
        elif kind == 1:
            m = int(rng.integers(6, 16))
            ang = 2 * np.pi * np.arange(m) / m
            c = rng.uniform(0.3, 1.3) * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        elif kind == 2:
            ang = rng.uniform(0, 2 * np.pi)
            d = 2 * r + float(rng.choice([-1e-12, 0.0, 1e-12]))
            c = np.array([[0.0, 0.0], [d * np.cos(ang), d * np.sin(ang)]])
            c = c + rng.uniform(-0.5, 0.5, size=2)
        else:
            k = int(rng.integers(2, 7))
            c = rng.integers(-k, k + 1, size=(int(rng.integers(1, 12)), 2)) / k
        out.append(BallUnion(2, r, c))
    return out


# pitches r/10 and finer ones that divide neither r nor a lattice step
PITCH_DIVISORS = (10, 10.7, 13.3)


@pytest.mark.parametrize("seed", range(6))
def test_ball_masks_match_per_node_queries(seed):
    # 6 x 40 unions x 2 rules = 480 rasters on random windows and pitches
    rng = np.random.default_rng(100 + seed)
    for R in ball_unions(seed, 40):
        res = R.eta / float(rng.choice(PITCH_DIVISORS))
        lo = rng.uniform(-2.0, -0.5, size=2)
        axes = raster_axes(lo, lo + rng.uniform(1.0, 3.0, size=2), res)
        for rule in (TOPOLOGY_RULE, HAUSDORFF_RULE):
            got = R.raster_mask(axes, rule["slack"])
            assert np.array_equal(got, reference_ball_mask(R, axes, rule))


@pytest.mark.parametrize("seed", range(3))
def test_ball_topology_matches_reference(seed):
    rng = np.random.default_rng(200 + seed)
    for R in ball_unions(10 + seed, 30):
        res = R.eta / float(rng.choice(PITCH_DIVISORS))
        assert region_topology(R, res).to_json() == reference_topology(R, res)


def lattice_spectra():
    out = []
    for seed in range(12):
        T = random_almost_commuting(2, 2 + seed % 7, (1e-3, 1e-2, 0.1)[seed % 3], seed)
        out.append(synthetic_spectrum(T, (0.15, 0.2, 0.3)[seed % 3]))
    return out


def test_lattice_spectra_match_reference():
    for R in lattice_spectra():
        for div in PITCH_DIVISORS[:2]:
            res = R.eta / div
            assert region_topology(R, res).to_json() == reference_topology(R, res)
        other = BallUnion(2, R.eta, R.centers[::3] + 0.0123)
        res = R.eta / 7
        assert (repr(hausdorff_distance(R, other, res))
                == repr(reference_hausdorff(R, other, res)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hausdorff_matches_reference(n):
    rng = np.random.default_rng(300 + n)
    for _ in range(30 if n < 3 else 12):
        r_a, r_b = rng.uniform(0.08, 0.3, size=2)
        A = BallUnion(n, r_a, rng.uniform(-1.4, 1.4, size=(rng.integers(1, 8), n)))
        B = BallUnion(n, r_b, rng.uniform(-1.4, 1.4, size=(rng.integers(1, 8), n)))
        res = 2 * min(r_a, r_b) / np.sqrt(n) / float(rng.choice([1.0, 2.3, 4.7]))
        assert repr(hausdorff_distance(A, B, res)) == repr(reference_hausdorff(A, B, res))


@pytest.mark.parametrize("k", [3, 5, 10, 20])
def test_brick_masks_and_topology_match_reference(k):
    rng = np.random.default_rng(400 + k)
    for _ in range(10):
        m = int(rng.integers(1, (2 * k) ** 2 // 2))
        B = BrickSet(2, k, rng.integers(-k, k, size=(m, 2)))
        res = 1.0 / (k * float(rng.choice([10, 11, 17.3])))
        lo = rng.uniform(-1.3, -0.9, size=2)
        axes = raster_axes(lo, -lo + rng.uniform(0.0, 0.2, size=2), res)
        assert np.array_equal(B.raster_mask(axes), reference_brick_mask(B, axes))
        pts = rng.uniform(-1.1, 1.1, size=(400, 2))
        pts[:200] = np.round(pts[:200] * k) / k  # faces and corners
        assert np.array_equal(B.contains_points(pts), reference_contains(B, pts))
        assert region_topology(B, res).to_json() == reference_topology(B, res)


def test_brick_masks_in_one_and_three_dimensions():
    rng = np.random.default_rng(5)
    cases = [(n, k, raster_axes([-1.2] * n, [1.2] * n, 1.0 / (4.3 * k)))
             for n, k in [(1, 7), (3, 3), (3, 5), (4, 2)]]
    # an axis of a single node, on a brick face
    plane = raster_axes([-1.2] * 2, [1.2] * 2, 0.07)
    cases.append((3, 4, [np.array([0.25])] + plane))
    for n, k, axes in cases:
        B = BrickSet(n, k, rng.integers(-k, k, size=(2 * k, n)))
        assert np.array_equal(B.raster_mask(axes), reference_brick_mask(B, axes))


def test_raster_counts_logged(caplog):
    caplog.set_level(logging.DEBUG, logger="synspec")
    ring = ball_unions(0, 2)[1]
    region_topology(ring, ring.eta / 10)
    region_topology(BrickSet(2, 5, np.array([[0, 0], [1, 1]])), 0.02)
    ball, brick = [m for m in caplog.messages if m.startswith("raster")]
    cells, decided, queried = map(int, ball.replace("=", " ").split()[2::2])
    assert cells == decided + queried and 0 < queried < cells // 10
    side = np.arange(-1.4, 1.41, 0.02).size
    assert brick == "raster cells=%d decided=%d queried=0" % (side ** 2, side ** 2)
