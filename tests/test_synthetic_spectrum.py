import importlib
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synspec import (
    BallUnion,
    EmptyRegionError,
    GridSpec,
    HermitianMatrix,
    InvalidInputError,
    InvalidWitnessError,
    OperatorTuple,
    ResourceLimitError,
    UnsupportedDimensionError,
    big_theta_norm,
    containment_check,
    dilate,
    grid_points,
    hausdorff_distance,
    near_spectrum_witness,
    random_almost_commuting,
    random_hermitian,
    spectral_norm,
    synthetic_spectrum,
)
from synspec.verify import matches_pointwise_oracle

# the package's ``synthetic_spectrum`` attribute is the function
sweep_module = importlib.import_module("synspec.synthetic_spectrum")


def herm(a):
    return HermitianMatrix(np.asarray(a, dtype=complex))


def scaled(T, M):
    return OperatorTuple(tuple(HermitianMatrix(op.entries * M) for op in T.ops),
                         norm_bound=M)


@st.composite
def tiny_tuples(draw):
    """Almost-commuting or random Hermitian tuples, n in {2, 3} and dim 2-5,
    scaled so that the grid has at most 2197 points."""
    n = draw(st.sampled_from([2, 3]))
    dim = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2 ** 20))
    delta = draw(st.sampled_from([1e-3, 1e-2, 1e-1, None]))
    if delta is None:
        rng = np.random.default_rng(seed)
        T = OperatorTuple(tuple(random_hermitian(dim, rng) for _ in range(n)))
    else:
        T = random_almost_commuting(n, dim, delta, seed)
    if n == 2:
        return scaled(T, draw(st.sampled_from([0.3, 0.5]))), draw(
            st.sampled_from([0.2, 0.3]))
    return scaled(T, draw(st.sampled_from([0.2, 0.3]))), 0.3


# 0.3 (sigma_z, sigma_x, sigma_z): at eta = 0.28 each bump sees one eigenvalue,
# so every sigma_z bump times a sigma_x bump has norm <= 1/sqrt(2) < 1 - eta
# and the middle level keeps no prefix
PAULI_ZXZ = OperatorTuple(tuple(
    HermitianMatrix(0.3 * np.asarray(a, dtype=complex))
    for a in ([[1, 0], [0, -1]], [[0, 1], [1, 0]], [[1, 0], [0, -1]])
), norm_bound=0.3)


class TestGridSpec:
    def test_explicit_small_grids(self):
        pts = grid_points(GridSpec(1, 1.0, 0.5, 2))
        assert np.allclose(pts.ravel(), [-1, -0.5, 0, 0.5, 1])
        pts = grid_points(GridSpec(2, 1.0, 0.5, 1))
        assert pts.shape == (9, 2)
        assert {tuple(p) for p in pts} == {(x, y) for x in (-1, 0, 1)
                                          for y in (-1, 0, 1)}

    def test_lattice_rule_reference_case(self):
        spec = GridSpec.create(2, 1.0, 0.1)
        assert spec.k == 77
        assert spec.point_count == 155 ** 2 == 24025

    def test_rule_minimality(self):
        spec = GridSpec.create(3, 1.0, 0.3)
        bound = 0.3 / (1 + 2 * np.sqrt(3))
        assert 2.0 / spec.k < bound <= 2.0 / (spec.k - 1)

    def test_bad_k_rejected(self):
        with pytest.raises(InvalidInputError):
            GridSpec(2, 1.0, 0.1, 0)

    def test_grid_cap(self):
        spec = GridSpec.create(3, 1.0, 0.05)
        with pytest.raises(ResourceLimitError):
            grid_points(spec)

    def test_lexicographic_order(self):
        spec = GridSpec.create(2, 1.0, 0.9)
        pts = grid_points(spec)
        keys = [tuple(p) for p in pts]
        assert keys == sorted(keys)


class TestBallUnion:
    def test_dedupe_and_sort(self):
        b = BallUnion(2, 0.1, np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))
        assert b.centers.shape == (2, 2)
        assert np.allclose(b.centers[0], [0, 0])

    def test_rows_sorted_lexicographically(self):
        c = np.array([[0.5, -0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]])
        b = BallUnion(2, 0.1, c)
        assert b.centers.tolist() == [[-0.5, -0.5], [-0.5, 0.5], [0.5, -0.5]]

    @pytest.mark.parametrize("rows", [
        [[0, 1], [0, 2], [1, 0]],  # strictly increasing: no sort needed
        [[0, 1], [0, 1], [1, 0]],
        [[0, 2], [0, 1], [1, 0]],
        [[1, 0], [0, 5], [2, 0]],
    ])
    def test_sorted_input_matches_sorted_set(self, rows):
        c = np.array(rows, dtype=float)
        b = BallUnion(2, 0.1, c)
        assert b.centers.tolist() == [list(r) for r in sorted(set(map(tuple, rows)))]
        assert c.flags.writeable and not np.shares_memory(b.centers, c)

    def test_zero_dimension_rejected(self):
        with pytest.raises(InvalidInputError):
            BallUnion(0, 0.1, np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_center_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            BallUnion(2, 0.1, np.array([[0.0, 0.0], [0.0, bad]]))

    @pytest.mark.parametrize("eta", [0.0, -0.1, np.nan, np.inf])
    def test_bad_radius_rejected(self, eta):
        with pytest.raises(InvalidInputError):
            BallUnion(2, eta, np.array([[0.0, 0.0]]))

    def test_distances(self):
        b = BallUnion(2, 0.1, np.array([[0.0, 0.0]]))
        d = b.distance_to_points(np.array([[0.05, 0.0], [0.5, 0.0]]))
        assert d[0] == 0.0
        assert d[1] == pytest.approx(0.4)

    def test_off_lattice_center_rejected(self):
        spec = GridSpec.create(2, 1.0, 0.2)
        with pytest.raises(InvalidInputError):
            BallUnion(2, 0.2, np.array([[0.123456, 0.0]]), spec)

    def test_json_roundtrip(self):
        b = BallUnion(2, 0.1, np.array([[0.5, -0.5], [0.0, 0.0]]))
        back = BallUnion.from_json(b.to_json())
        assert np.allclose(back.centers, b.centers)
        assert back.eta == b.eta


class TestBigThetaNorm:
    def test_joint_eigenvector(self):
        d = herm(np.diag([0.0, 1.0]))
        T = OperatorTuple((d, d))
        assert big_theta_norm(T, [0.0, 0.0], 0.1) == pytest.approx(1.0)

    def test_disjoint_supports(self):
        d = herm(np.diag([0.0, 1.0]))
        T = OperatorTuple((d, d))
        assert big_theta_norm(T, [0.0, 1.0], 0.1) == pytest.approx(0.0, abs=1e-14)

    def test_ramp_value(self):
        # theta_{0.16, 0.2}(0) = (0.2 - 0.16) / (0.2/4) = 0.8
        a = herm(np.diag([-1.0, 0.0, 1.0]))
        T = OperatorTuple((a,))
        assert big_theta_norm(T, [0.16], 0.2) == pytest.approx(0.8)

    def test_order_parameter(self):
        T = random_almost_commuting(2, 6, 0.3, 8)
        v1 = big_theta_norm(T, [0.1, -0.2], 0.3, order=(0, 1))
        v2 = big_theta_norm(T, [0.1, -0.2], 0.3, order=(1, 0))
        # both orders are legitimate; they agree up to the commutator scale
        assert abs(v1 - v2) < 1.0

    def test_out_of_box_rejected(self):
        T = OperatorTuple((herm(np.diag([0.0, 1.0])),))
        with pytest.raises(InvalidInputError):
            big_theta_norm(T, [2.0], 0.1)

    @pytest.mark.parametrize("eta", [0.0, -0.1, float("nan")])
    def test_bad_eta_rejected(self, eta):
        T = OperatorTuple((herm(np.diag([0.0, 1.0])),))
        with pytest.raises(InvalidInputError, match="eta must be positive"):
            big_theta_norm(T, [0.0], eta)

    @pytest.mark.parametrize("order", [(0, 0), (0,), (1, 1), (0, 1, 1)])
    def test_bad_order_rejected(self, order):
        T = random_almost_commuting(2, 4, 1e-2, 0)
        with pytest.raises(InvalidInputError, match="permutation"):
            big_theta_norm(T, [0.0, 0.0], 0.2, order=order)


class TestSyntheticSpectrum:
    def contains(self, region, point):
        return containment_check(np.atleast_2d(point), region, 0.0)

    def test_commuting_diag_pair(self):
        d = herm(np.diag([0.0, 1.0]))
        T = OperatorTuple((d, d))
        region = synthetic_spectrum(T, 0.2)
        assert self.contains(region, [0.0, 0.0])
        assert self.contains(region, [1.0, 1.0])
        # no joint eigenvalue near (0, 1)
        assert not np.any(
            np.all(np.abs(region.centers - np.array([0.0, 1.0])) < 0.05, axis=1)
        )

    # n = 3 tuples scaled to M = 0.3 keep the grid at 19^3 points and
    # exercise the middle level of the pruned sweep
    @pytest.mark.parametrize("n, dim, M, eta, seed", [
        pytest.param(2, 4, 1.0, 0.2, 21, id="n2-dim4-seed21"),
        *(pytest.param(2, 5, 1.0, 0.25, s, id="n2-dim5-seed%d" % s)
          for s in range(8)),
        *(pytest.param(3, 4, 0.3, 0.2, s, id="n3-dim4-seed%d" % s)
          for s in range(3)),
    ])
    def test_matches_pointwise_oracle(self, n, dim, M, eta, seed):
        T = random_almost_commuting(n, dim, 1e-2, seed)
        T = OperatorTuple(tuple(HermitianMatrix(op.entries * M) for op in T.ops),
                          norm_bound=M)
        assert matches_pointwise_oracle(T, eta, synthetic_spectrum(T, eta))

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(tiny_tuples())
    def test_matches_pointwise_oracle_on_tiny_grids(self, case):
        T, eta = case
        assert matches_pointwise_oracle(T, eta, synthetic_spectrum(T, eta))

    @pytest.mark.parametrize("n, dim, M, eta, seed", [
        (2, 6, 1.0, 0.2, 4), (3, 4, 0.3, 0.2, 0), (3, 5, 0.5, 0.3, 1)])
    def test_chunking_keeps_centers(self, monkeypatch, n, dim, M, eta, seed):
        T = scaled(random_almost_commuting(n, dim, 1e-2, seed), M)
        want = synthetic_spectrum(T, eta).centers
        assert want.shape[0] > 0
        monkeypatch.setattr(sweep_module, "_BATCH", 3)
        assert np.array_equal(synthetic_spectrum(T, eta).centers, want)

    def test_empty_middle_level(self, caplog):
        caplog.set_level(logging.DEBUG, logger=sweep_module.__name__)
        region = synthetic_spectrum(PAULI_ZXZ, 0.28)
        assert region.is_empty
        assert matches_pointwise_oracle(PAULI_ZXZ, 0.28, region)
        assert caplog.messages == ["sweep axis 1: prefixes=10 bounded_out=100 "
                                   "eigensolved=0 survivors=0"]

    def test_level_counts_logged(self, caplog):
        # prefixes and survivors are those of the per-prefix loop this sweep
        # replaced; a pair is eigensolved iff its dense bump product has
        # Frobenius norm >= the threshold
        caplog.set_level(logging.DEBUG, logger=sweep_module.__name__)
        T, eta = scaled(random_almost_commuting(3, 4, 1e-2, 0), 0.3), 0.2
        thresh = (1.0 - eta) - sweep_module.BORDERLINE_TOL
        coords = GridSpec.create(3, 0.3, eta).axis_coords()
        cand = [[b for b in (sweep_module._bump_matrix(op, c, eta) for c in coords)
                 if spectral_norm(b) >= thresh]
                for op in T.ops]
        prefixes, want = cand[0], []
        for axis in (1, 2):
            pairs = [a @ b for a in prefixes for b in cand[axis]]
            solved = sum(np.linalg.norm(x) >= thresh for x in pairs)
            survivors = [x for x in pairs if spectral_norm(x) >= thresh]
            want.append("sweep axis %d: prefixes=%d bounded_out=%d eigensolved=%d "
                        "survivors=%d" % (axis, len(prefixes), len(pairs) - solved,
                                          solved, len(survivors)))
            prefixes = survivors
        assert synthetic_spectrum(T, eta).centers.shape[0] == 2361
        assert caplog.messages == want == [
            "sweep axis 1: prefixes=18 bounded_out=73 eigensolved=269 "
            "survivors=268",
            "sweep axis 2: prefixes=268 bounded_out=2728 eigensolved=2364 "
            "survivors=2361",
        ]

    def test_single_operator_window(self):
        a = herm(np.diag([-1.0, 0.0, 1.0]))
        region = synthetic_spectrum(OperatorTuple((a,)), 0.2)
        # accepted centers c satisfy theta_{c,0.2}(lam) >= 0.8, i.e. |c-lam| <= 0.16
        eigs = np.array([-1.0, 0.0, 1.0])
        for c in region.centers.ravel():
            assert np.abs(eigs - c).min() <= 0.16 + 1e-9
        assert self.contains(region, [0.0])

    def test_zero_tuple_contains_origin(self):
        z = herm(np.zeros((3, 3)))
        for n in (1, 2, 3):
            region = synthetic_spectrum(OperatorTuple((z,) * n), 0.2)
            assert self.contains(region, np.zeros(n))
            assert np.abs(region.centers).max() <= 0.16 + 1e-9

    def test_order_recorded_columns(self):
        T = random_almost_commuting(2, 5, 1e-3, 3)
        fwd = synthetic_spectrum(T, 0.2, order=(0, 1))
        rev = synthetic_spectrum(T, 0.2, order=(1, 0))
        # near-commuting: both orders see the joint spectrum in axis order
        d = hausdorff_distance(fwd, rev, 0.01)
        assert d < 0.05

    def test_grid_cap_raises(self):
        T = random_almost_commuting(3, 4, 1e-2, 0)
        with pytest.raises(ResourceLimitError):
            synthetic_spectrum(T, 0.05)

    def test_bad_order(self):
        T = random_almost_commuting(2, 4, 1e-2, 0)
        with pytest.raises(InvalidInputError):
            synthetic_spectrum(T, 0.2, order=(0, 0))


class TestHausdorff:
    def test_identical_regions(self):
        b = BallUnion(2, 0.1, np.array([[0.0, 0.0], [0.5, 0.5]]))
        assert hausdorff_distance(b, b, 0.01) == 0.0

    def test_shifted_singletons(self):
        a = BallUnion(2, 0.1, np.array([[0.0, 0.0]]))
        b = BallUnion(2, 0.1, np.array([[0.3, 0.0]]))
        d = hausdorff_distance(a, b, 0.005)
        assert d == pytest.approx(0.3, abs=0.005 * np.sqrt(2) + 1e-9)

    def test_subset_against_sampling_oracle(self):
        rng = np.random.default_rng(6)
        centers = rng.uniform(-0.5, 0.5, size=(5, 2))
        a = BallUnion(2, 0.1, centers[:2])
        b = BallUnion(2, 0.1, centers)
        res = 0.01
        d = hausdorff_distance(a, b, res)
        # Monte-Carlo directed distance at 10x finer sampling
        samples = rng.uniform(-0.7, 0.7, size=(20000, 2))
        inside_b = b.distance_to_points(samples) <= 1e-12
        oracle = b.distance_to_points(samples)[inside_b.astype(bool)]
        oracle = a.distance_to_points(samples[inside_b]).max()
        assert abs(d - oracle) <= np.sqrt(2) * res + 0.02

    def test_empty_region_error(self):
        a = BallUnion(2, 0.1, np.zeros((0, 2)))
        b = BallUnion(2, 0.1, np.array([[0.0, 0.0]]))
        with pytest.raises(EmptyRegionError):
            hausdorff_distance(a, b, 0.01)

    @pytest.mark.parametrize("resolution", [1e-6, 1e-300, 5e-324])
    def test_raster_cap(self, resolution):
        a = BallUnion(2, 0.1, np.array([[0.0, 0.0]]))
        with pytest.raises(ResourceLimitError):
            hausdorff_distance(a, a, resolution)

    @pytest.mark.parametrize("resolution", [0.0, np.nan, np.inf])
    def test_bad_resolution(self, resolution):
        a = BallUnion(2, 0.1, np.array([[0.0, 0.0]]))
        with pytest.raises(InvalidInputError):
            hausdorff_distance(a, a, resolution)


class TestWitness:
    def test_exact_witness(self):
        S = random_almost_commuting(2, 6, 0.3, 12, exact=True)
        rep = near_spectrum_witness(S, S, 0.1)
        assert rep.valid
        assert rep.max_distance == 0.0
        _, vals = np.unique(rep.witness.points, axis=0), None
        assert rep.witness.points.shape[1] == 2

    def test_perturbed_witness(self):
        rng = np.random.default_rng(13)
        S = random_almost_commuting(2, 8, 0.3, 13, exact=True)
        ops = tuple(
            HermitianMatrix(op.entries * 0.99
                            + random_hermitian(8, rng, norm=1e-3).entries)
            for op in S.ops
        )
        T = OperatorTuple(ops)
        rep = near_spectrum_witness(T, S, 0.1)
        assert rep.valid
        assert rep.max_distance < 0.02

    def test_distant_witness_invalid(self):
        S = OperatorTuple((herm(np.diag([0.5, -0.5])),))
        T = OperatorTuple((herm(np.diag([0.0, 0.0])),))
        rep = near_spectrum_witness(T, S, 0.1)
        assert not rep.valid

    def test_noncommuting_witness_rejected(self):
        S = OperatorTuple((herm([[0, 1], [1, 0]]), herm(np.diag([1.0, -1.0]))))
        with pytest.raises(InvalidWitnessError):
            near_spectrum_witness(S, S, 0.1)


class TestContainment:
    def test_self_containment(self):
        b = BallUnion(2, 0.1, np.array([[0.0, 0.0], [0.4, 0.1]]))
        assert containment_check(b, b, 0.0)

    def test_shifted_with_slack(self):
        a = BallUnion(2, 0.1, np.array([[0.05, 0.0]]))
        b = BallUnion(2, 0.1, np.array([[0.0, 0.0]]))
        assert containment_check(a, b, 0.1)

    def test_disjoint_fails(self):
        a = BallUnion(2, 0.1, np.array([[0.0, 0.0]]))
        b = BallUnion(2, 0.1, np.array([[1.0, 1.0]]))
        assert not containment_check(a, b, 0.1)

    def test_point_set_inner(self):
        b = BallUnion(2, 0.1, np.array([[0.0, 0.0]]))
        assert containment_check(np.array([[0.05, 0.05]]), b, 0.0)
        assert not containment_check(np.array([[0.5, 0.0]]), b, 0.1)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_boundary_sampling_path(self, n):
        a = BallUnion(n, 0.2, np.zeros((1, n)))
        b = BallUnion(n, 0.1, np.zeros((1, n)))
        assert containment_check(a, b, 0.1)  # ball in ball
        # the inner sphere lies 0.1 outside b: boundary samples say so
        assert not containment_check(a, b, 0.05)
        # no single outer ball holds the inner one, but the 2n balls at
        # +-0.05 along the axes cover it: boundary samples say so
        inner = BallUnion(n, 0.1, np.zeros((1, n)))
        axes = 0.05 * np.eye(n)
        outer = BallUnion(n, 0.1, np.vstack([axes, -axes]))
        assert containment_check(inner, outer, 0.0)

    def test_boundary_sampling_needs_n_le_3(self):
        a = BallUnion(4, 0.2, np.zeros((1, 4)))
        b = BallUnion(4, 0.1, np.zeros((1, 4)))
        with pytest.raises(UnsupportedDimensionError):
            containment_check(a, b, 0.05)


class TestSpectralProperties:
    def test_monotonicity_small(self):
        for seed in range(5):
            T = random_almost_commuting(2, 8, 1e-2, seed)
            small = synthetic_spectrum(T, 0.1)
            big = synthetic_spectrum(T, 0.2)
            assert containment_check(small, big, 0.1)

    def test_spectral_containment_small(self):
        for seed in range(5):
            T = random_almost_commuting(2, 12, 1e-3, 100 + seed)
            w = np.linalg.eigvals(T.ops[0].entries + 1j * T.ops[1].entries)
            pts = np.stack([w.real, w.imag], axis=1)
            region = synthetic_spectrum(T, 0.1)
            assert containment_check(pts, region, 0.0)

    def test_nonemptiness_small(self):
        for seed in range(5):
            T = random_almost_commuting(3, 6, 1e-3, 200 + seed)
            assert not synthetic_spectrum(T, 0.2).is_empty

    def test_dilate(self):
        b = BallUnion(2, 0.1, np.array([[0.0, 0.0]]))
        d = dilate(b, 0.05)
        assert d.eta == pytest.approx(0.15)
        assert np.allclose(d.centers, b.centers)
