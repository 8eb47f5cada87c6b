import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synspec import (
    BallUnion,
    BrickSet,
    EmptyInputError,
    EmptyRegionError,
    InvalidInputError,
    ResourceLimitError,
    UnsupportedDimensionError,
    brick_cover,
    dilate,
    region_topology,
)
from synspec.verify import brick_cover_facts


@st.composite
def clouds(draw):
    """Points in [-1, 1]^n, n <= 3, mixing uniform draws with lattice points
    j/k (faces, corners and the box boundary +-1)."""
    n = draw(st.integers(1, 3))
    k = draw(st.sampled_from([1, 2, 5, 10, 20]))
    coord = st.one_of(st.floats(-1.0, 1.0), st.integers(-k, k).map(lambda j: j / k))
    rows = draw(st.lists(st.lists(coord, min_size=n, max_size=n),
                         min_size=1, max_size=20))
    return np.array(rows), k


class TestBrickCover:
    def test_interior_point(self):
        cover = brick_cover(np.array([[0.05, 0.05]]), 10)
        assert cover.corners.shape == (1, 2)
        assert np.array_equal(cover.corners[0], [0, 0])

    def test_corner_point_touches_four_bricks(self):
        cover = brick_cover(np.array([[0.0, 0.0]]), 10)
        got = {tuple(c) for c in cover.corners}
        assert got == {(0, 0), (-1, 0), (0, -1), (-1, -1)}

    def test_boundary_point_clamped(self):
        cover = brick_cover(np.array([[1.0]]), 5)
        assert {tuple(c) for c in cover.corners} == {(4,)}

    def test_covers_and_meets(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = 1 + trial % 3
            k = [5, 10, 20][trial % 3]
            X = rng.uniform(-1, 1, size=(30, n))
            assert brick_cover_facts(X, k, brick_cover(X, k)) is None

    def test_cover_distance_bound(self):
        rng = np.random.default_rng(8)
        for n, k in [(1, 5), (2, 10), (3, 20)]:
            X = rng.uniform(-1, 1, size=(50, n))
            assert brick_cover_facts(X, k, brick_cover(X, k)) is None

    @settings(deadline=None, derandomize=True)
    @given(clouds())
    def test_facts_on_faces(self, cloud):
        X, k = cloud
        # fact (i) is contains_points(X).all()
        assert brick_cover_facts(X, k, brick_cover(X, k)) is None

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            brick_cover(np.zeros((0, 2)), 5)

    def test_out_of_box_rejected(self):
        with pytest.raises(InvalidInputError):
            brick_cover(np.array([[1.5, 0.0]]), 5)


class TestBrickSet:
    def test_dedupes_corners(self):
        b = BrickSet(2, 5, np.array([[0, 0], [0, 0], [1, 1]]))
        assert b.corners.shape == (2, 2)

    def test_corners_sorted_lexicographically(self):
        b = BrickSet(2, 5, np.array([[1, -2], [-1, 3], [-1, -2], [1, -2]]))
        assert b.corners.tolist() == [[-1, -2], [-1, 3], [1, -2]]

    def test_contains_closed_boxes(self):
        b = BrickSet(2, 5, np.array([[0, 0]]))
        pts = np.array([[0.0, 0.0], [0.2, 0.2], [0.1, 0.1], [0.21, 0.0]])
        assert list(b.contains_points(pts)) == [True, True, True, False]

    def test_zero_dimension_rejected(self):
        with pytest.raises(InvalidInputError):
            BrickSet(0, 5, np.zeros((0, 0), dtype=int))

    def test_bounds_enforced(self):
        with pytest.raises(InvalidInputError):
            BrickSet(2, 5, np.array([[5, 0]]))

    @pytest.mark.parametrize("corner", [[0.7, -0.4], [float("nan"), 0.0]])
    def test_fractional_corner_rejected(self, corner):
        with pytest.raises(InvalidInputError, match="integers"):
            BrickSet(2, 5, np.array([corner]))

    def test_non_integer_k_rejected(self):
        with pytest.raises(InvalidInputError, match="integer"):
            BrickSet(1, 2.5, np.array([[0]]))
        with pytest.raises(InvalidInputError, match="integer"):
            brick_cover(np.array([[0.1, 0.1]]), 2.5)

    def test_raster_table_capped(self):
        # the occupancy table of k = 1000 bricks in 3-D has 8e9 cells
        b = BrickSet(3, 1000, np.array([[0, 0, 0]]))
        with pytest.raises(ResourceLimitError):
            b.raster_mask([np.zeros(1)] * 3)

    def test_json_roundtrip(self):
        b = BrickSet(2, 10, np.array([[0, 0], [-3, 2]]))
        back = BrickSet.from_json(b.to_json())
        assert np.array_equal(back.corners, b.corners)

    def test_from_json_off_lattice(self):
        with pytest.raises(InvalidInputError):
            BrickSet.from_json({"n": 1, "k": 10, "corners": [[0.123]]})

    @pytest.mark.parametrize("obj", [
        {"n": 2, "k": 2.5, "corners": [[0, 0], [0.5, 0]]},
        {"n": 2.7, "k": 2, "corners": [[0, 0], [0.5, 0]]},
        {"n": 2, "k": 2.0, "corners": [[0, 0]]},
        {"n": "2", "k": 2, "corners": [[0, 0]]},
        # operator.index(True) is 1: these loaded 1-D or k = 1 sets
        {"n": True, "k": True, "corners": [[0]]},
        {"n": True, "k": 10, "corners": [[0]]},
        {"n": 1, "k": True, "corners": [[0]]},
    ], ids=["k-2.5", "n-2.7", "k-2.0", "n-string", "n-k-true", "n-true",
            "k-true"])
    def test_from_json_non_integral_n_or_k_rejected(self, obj):
        # int() read k = 2.5 as 2, and the corner 0.5 as lattice point 1
        with pytest.raises(InvalidInputError, match="must be an integer"):
            BrickSet.from_json(obj)


class TestRegionTopology:
    def test_single_ball(self):
        b = BallUnion(2, 0.15, np.array([[0.0, 0.0]]))
        topo = region_topology(b, 0.01)
        assert topo.component_count == 1
        assert len(topo.holes) == 0

    def test_ring_of_balls_has_one_hole(self):
        ang = 2 * np.pi * np.arange(12) / 12
        centers = 0.5 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        b = BallUnion(2, 0.15, centers)
        topo = region_topology(b, 0.005)
        assert topo.component_count == 1
        assert len(topo.holes) == 1
        rep = topo.holes[0].representative
        assert np.linalg.norm(rep) < 0.2  # deepest cell sits near the origin

    @pytest.mark.parametrize("center, radius, components, holes", [
        ((0.0, 0.0), 1.5, 1, 1),
        ((1.5, 0.0), 0.5, 1, 1),
        ((0.0, 0.0), 3.0, 48, 0),  # 0.39 apart: the balls do not touch
    ])
    def test_raster_grows_to_fit_the_region(self, center, radius, components,
                                            holes):
        ang = 2 * np.pi * np.arange(48) / 48
        ring = radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        topo = region_topology(BallUnion(2, 0.15, np.add(center, ring)), 0.01)
        assert topo.component_count == components
        assert len(topo.holes) == holes
        for h in topo.holes:
            assert np.linalg.norm(h.representative - center) < 0.1

    def test_two_components(self):
        b = BallUnion(2, 0.1, np.array([[-0.5, 0.0], [0.5, 0.0]]))
        topo = region_topology(b, 0.01)
        assert topo.component_count == 2
        assert len(topo.holes) == 0

    def test_resolution_stability(self):
        ang = 2 * np.pi * np.arange(12) / 12
        centers = 0.5 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        b = BallUnion(2, 0.15, centers)
        a = region_topology(b, 0.01)
        c = region_topology(b, 0.005)
        assert a.component_count == c.component_count
        assert len(a.holes) == len(c.holes)

    def test_representative_depth(self):
        ang = 2 * np.pi * np.arange(12) / 12
        centers = 0.5 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        b = BallUnion(2, 0.15, centers)
        res = 0.005
        topo = region_topology(b, res)
        rep = topo.holes[0].representative
        assert b.distance_to_points(rep[None, :])[0] >= res

    def test_brickset_region(self):
        # hollow square frame of bricks
        k = 5
        rim = []
        for i in range(-2, 2):
            rim += [(i, -2), (i, 1), (-2, i), (1, i)]
        b = BrickSet(2, k, np.array(sorted(set(rim))))
        topo = region_topology(b, 0.02)
        assert topo.component_count == 1
        assert len(topo.holes) == 1

    def test_brick_lattice_holes(self, alarm):
        # every other row and column of k = 50 bricks: 49^2 holes, each the
        # 9 x 9 nodes inside one empty brick; a full raster scan per hole
        # took over 5 s
        k = 50
        i, j = np.meshgrid(np.arange(-k, k), np.arange(-k, k), indexing="ij")
        keep = (i % 2 == 0) | (j % 2 == 0)
        bricks = BrickSet(2, k, np.stack([i[keep], j[keep]], axis=1))
        topo = region_topology(bricks, 1 / (10 * k))
        assert topo.component_count == 1
        assert len(topo.holes) == 49 ** 2
        assert {h.cell_count for h in topo.holes} == {81}
        centers = (np.arange(-k + 1, k - 1, 2) + 0.5) / k
        reps = np.array([h.representative for h in topo.holes])
        assert np.abs(reps - np.stack(np.meshgrid(centers, centers, indexing="ij"),
                                      axis=-1).reshape(-1, 2)).max() < 1e-9

    def test_rejects_3d(self):
        b = BallUnion(3, 0.2, np.array([[0.0, 0.0, 0.0]]))
        with pytest.raises(UnsupportedDimensionError):
            region_topology(b, 0.01)

    def test_rejects_coarse_resolution(self):
        b = BallUnion(2, 0.1, np.array([[0.0, 0.0]]))
        with pytest.raises(InvalidInputError):
            region_topology(b, 0.05)

    @pytest.mark.parametrize("resolution", [0.0, np.nan])
    def test_rejects_zero_or_nan_resolution(self, resolution):
        b = BallUnion(2, 0.1, np.array([[0.0, 0.0]]))
        with pytest.raises(InvalidInputError):
            region_topology(b, resolution)

    @pytest.mark.parametrize("region", [
        BallUnion(2, 0.1, np.array([[0.0, 0.0]])),
        BrickSet(2, 5, np.array([[0, 0]])),
    ])
    def test_raster_cap(self, region):
        with pytest.raises(ResourceLimitError):
            region_topology(region, 1e-6)

    def test_empty_region(self):
        b = BallUnion(2, 0.1, np.zeros((0, 2)))
        with pytest.raises(EmptyRegionError):
            region_topology(b, 0.01)

    def test_json_shape(self):
        b = BallUnion(2, 0.15, np.array([[0.0, 0.0]]))
        obj = region_topology(b, 0.01).to_json()
        assert obj["component_count"] == 1
        assert obj["holes"] == []
        assert obj["resolution"] == 0.01


class TestDilate:
    def test_zero_dilation(self):
        b = BallUnion(2, 0.1, np.array([[0.0, 0.0]]))
        d = dilate(b, 0.0)
        assert d.eta == b.eta

    def test_grows_radius(self):
        b = BallUnion(2, 0.1, np.array([[0.0, 0.0]]))
        assert dilate(b, 0.05).eta == pytest.approx(0.15)

    def test_preserves_containment(self):
        from synspec import containment_check
        a = BallUnion(2, 0.1, np.array([[0.1, 0.0]]))
        b = BallUnion(2, 0.2, np.array([[0.0, 0.0]]))
        assert containment_check(a, b, 0.0)
        assert containment_check(dilate(a, 0.05), dilate(b, 0.05), 0.0)

    def test_negative_rejected(self):
        b = BallUnion(2, 0.1, np.array([[0.0, 0.0]]))
        with pytest.raises(InvalidInputError):
            dilate(b, -0.1)
