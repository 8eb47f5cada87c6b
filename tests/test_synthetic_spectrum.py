import importlib
import logging
import re

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


def dense_level_counts(T, eta):
    """The sweep's per-level counts, from dense bump products.

    Prefixes and survivors are those of a per-prefix loop.  A pair passes the
    trace bound iff its product a @ b has Frobenius norm >= the threshold, and
    is accepted by bound iff the largest column norm of (a @ b) U, U the
    candidate axis's eigenbasis, reaches it; the pairs that pass but are not
    accepted are eigensolved.
    """
    thresh = sweep_module.inclusion_threshold(eta)
    coords = GridSpec.create(T.n, T.norm_bound, eta).axis_coords()
    cand = [[b for b in (sweep_module._bump_matrix(op, c, eta) for c in coords)
             if spectral_norm(b) >= thresh]
            for op in T.ops]
    prefixes, out = cand[0], []
    for axis in range(1, T.n):
        U = T.ops[axis].eigh[1]
        pairs = [a @ b for a in prefixes for b in cand[axis]]
        passed = [x for x in pairs if np.linalg.norm(x) >= thresh]
        accepted = sum(np.linalg.norm(x @ U, axis=0).max() >= thresh for x in passed)
        survivors = [x for x in pairs if spectral_norm(x) >= thresh]
        out.append({"prefixes": len(prefixes), "bounded_out": len(pairs) - len(passed),
                    "accepted_by_bound": accepted,
                    "eigensolved": len(passed) - accepted,
                    "survivors": len(survivors)})
        prefixes = survivors
    return out


# 0.3 (sigma_z, sigma_x, sigma_z): at eta = 0.28 each bump sees one eigenvalue,
# so every sigma_z bump times a sigma_x bump has norm <= 1/sqrt(2) < 1 - eta
# and the middle level keeps no prefix
PAULI_ZXZ = OperatorTuple(tuple(
    HermitianMatrix(0.3 * np.asarray(a, dtype=complex))
    for a in ([[1, 0], [0, -1]], [[0, 1], [1, 0]], [[1, 0], [0, -1]])
), norm_bound=0.3)


class TestGridSpec:
    def test_explicit_small_grids(self):
        spec = GridSpec.create(1, 1.0, 0.9)
        assert (spec.k, spec.point_count) == (7, 15)
        assert np.array_equal(grid_points(spec).ravel(), np.arange(-7, 8) / 7)
        spec = GridSpec.create(2, 1.0, 0.9)
        pts, axis = grid_points(spec), np.arange(-9, 10) / 9
        assert spec.k == 9 and pts.shape == (19 ** 2, 2)
        assert {tuple(p) for p in pts} == {(x, y) for x in axis for y in axis}

    def test_lattice_rule_reference_case(self):
        spec = GridSpec.create(2, 1.0, 0.1)
        assert spec.k == 77
        assert spec.point_count == 155 ** 2 == 24025

    def test_rule_minimality(self):
        spec = GridSpec.create(3, 1.0, 0.3)
        bound = 0.3 / (1 + 2 * np.sqrt(3))
        assert 2.0 / spec.k < bound <= 2.0 / (spec.k - 1)

    def test_k_is_derived_not_given(self):
        with pytest.raises(TypeError):
            GridSpec(2, 1.0, 0.1, 77)
        with pytest.raises(TypeError):
            GridSpec(2, 1.0, 0.1, k=77)
        assert GridSpec(2, 1.0, 0.1) == GridSpec.create(2, 1, 0.1)

    @pytest.mark.parametrize("n", [2.5, 5.0, "5", None, 0, -1])
    def test_bad_n_rejected(self, n):
        with pytest.raises(InvalidInputError, match="ambient dimension"):
            GridSpec.create(n, 1.0, 0.1)

    def test_numpy_integer_n_accepted(self):
        spec = GridSpec.create(np.int64(2), 1.0, 0.1)
        assert type(spec.n) is int and spec.point_count == 24025

    @pytest.mark.parametrize("M", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_M_rejected_by_constructor(self, M):
        with pytest.raises(InvalidInputError, match="M must be"):
            GridSpec(2, M, 0.1)

    def test_rule_minimality_in_floats(self, alarm):
        # k up to about 1e38, where stepping k by 1 would never end
        rng = np.random.default_rng(0)
        for _ in range(2000):
            n = int(rng.integers(1, 7))
            M, eta = 10 ** rng.uniform(-3, 6), 10 ** rng.uniform(-30, -1e-9)
            k = GridSpec.create(n, M, eta).k
            bound = eta / (1 + 2 * np.sqrt(n))
            assert (M + 1) / k < bound
            assert k == 1 or not (M + 1) / (k - 1) < bound

    @pytest.mark.parametrize("n, M, eta", [
        (2, 1.0, 1e-300),  # k too large for a float
        (2, 1.0, 5e-324),  # the pitch bound underflows to 0
        (2, 1e300, 0.1),  # M * k overflows
        (2, 1.0, 1e-200),  # the point count overflows a float
    ])
    def test_uncountable_grid_raises_resource_limit(self, alarm, n, M, eta):
        with pytest.raises(ResourceLimitError, match="too many points"):
            GridSpec.create(n, M, eta)

    @pytest.mark.parametrize("M", [float("nan"), float("inf")])
    def test_non_finite_M_rejected(self, M):
        with pytest.raises(InvalidInputError, match="M must be"):
            GridSpec.create(2, M, 0.1)

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

    @pytest.mark.parametrize("n", [2.7, 2.0, "2", True])
    def test_from_json_non_integral_n_rejected(self, n):
        # int() read n = 2.7 as 2, and operator.index(True) is 1
        with pytest.raises(InvalidInputError, match="must be an integer"):
            BallUnion.from_json({"n": n, "eta": 0.1, "centers": [[0.0, 0.0]]})


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

    @pytest.mark.parametrize("order", [(0, 1.0), (1.0, 0.0), (0, "1"),
                                       (0, None)])
    def test_non_integer_order_rejected(self, order):
        T = random_almost_commuting(2, 4, 1e-2, 0)
        with pytest.raises(InvalidInputError, match="permutation"):
            big_theta_norm(T, [0.0, 0.0], 0.2, order=order)
        with pytest.raises(InvalidInputError, match="permutation"):
            synthetic_spectrum(T, 0.2, order=order)

    def test_numpy_integer_order_accepted(self):
        T = random_almost_commuting(2, 4, 1e-2, 0)
        order = tuple(np.array([1, 0]))
        assert np.array_equal(synthetic_spectrum(T, 0.2, order=order).centers,
                              synthetic_spectrum(T, 0.2, order=(1, 0)).centers)


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
                                   "accepted_by_bound=0 eigensolved=0 survivors=0"]

    def test_level_counts_logged(self, caplog):
        caplog.set_level(logging.DEBUG, logger=sweep_module.__name__)
        T, eta = scaled(random_almost_commuting(3, 4, 1e-2, 0), 0.3), 0.2
        want = ["sweep axis %d: " % axis + " ".join("%s=%d" % kv for kv in c.items())
                for axis, c in enumerate(dense_level_counts(T, eta), 1)]
        assert synthetic_spectrum(T, eta).centers.shape[0] == 2361
        assert caplog.messages == want == [
            "sweep axis 1: prefixes=18 bounded_out=73 accepted_by_bound=268 "
            "eigensolved=1 survivors=268",
            "sweep axis 2: prefixes=268 bounded_out=2728 accepted_by_bound=2361 "
            "eigensolved=3 survivors=2361",
        ]

    # the n = 2 pair eigensolves 21 pairs and keeps 19 of them
    @pytest.mark.parametrize("n, dim, M, delta, seed", [
        (3, 4, 0.3, 1e-2, 0), (2, 6, 1.0, 0.1, 2)], ids=["n3-dim4", "n2-dim6"])
    def test_eigvalsh_sees_only_undecided_pairs(self, monkeypatch, caplog,
                                                n, dim, M, delta, seed):
        rows, eigvalsh = [], np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            rows.append(len(a))
            return eigvalsh(a, *args, **kwargs)

        T = scaled(random_almost_commuting(n, dim, delta, seed), M)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        caplog.set_level(logging.DEBUG, logger=sweep_module.__name__)
        synthetic_spectrum(T, 0.2)
        logged = re.findall(r"eigensolved=(\d+)", " ".join(caplog.messages))
        counts = dense_level_counts(T, 0.2)
        assert len(logged) == len(counts) == n - 1
        solved = sum(c["eigensolved"] for c in counts)
        assert sum(rows) == sum(map(int, logged)) == solved
        assert solved < sum(c["accepted_by_bound"] + c["eigensolved"] for c in counts)

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

    def test_nan_grid_cap_rejected(self):
        T = random_almost_commuting(2, 4, 1e-2, 0)
        with pytest.raises(InvalidInputError, match="grid cap"):
            synthetic_spectrum(T, 0.2, grid_cap=float("nan"))

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

    def test_ball_smaller_than_a_cell_rejected(self):
        # at pitch 0.0724 no node falls in A's second ball, which read 0.0
        a = BallUnion(2, 0.0367, np.array([[0.137, -0.2302],
                                           [2.1502, -0.2689]]))
        b = BallUnion(2, 0.0367, a.centers[:1])
        with pytest.raises(InvalidInputError, match="resolution"):
            hausdorff_distance(a, b, 0.0724)
        res = 0.0367
        d = hausdorff_distance(a, b, res)
        true = np.linalg.norm(a.centers[1] - a.centers[0])
        assert abs(d - true) <= np.sqrt(2) * res

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
    def test_union_cover_not_certified(self, n):
        a = BallUnion(n, 0.2, np.zeros((1, n)))
        b = BallUnion(n, 0.1, np.zeros((1, n)))
        assert containment_check(a, b, 0.1)  # ball in ball
        assert not containment_check(a, b, 0.05)  # 0.1 outside b
        # the 2n balls at +-0.05 along the axes cover the inner ball, but
        # no single one holds it, so containment is not certified
        inner = BallUnion(n, 0.1, np.zeros((1, n)))
        axes = 0.05 * np.eye(n)
        outer = BallUnion(n, 0.1, np.vstack([axes, -axes]))
        assert not containment_check(inner, outer, 0.0)
        assert containment_check(inner, outer, 0.05)

    def test_any_dimension(self):
        a = BallUnion(4, 0.1, np.zeros((1, 4)))
        b = BallUnion(4, 0.2, np.array([[0.05, 0.0, 0.0, 0.0]]))
        assert containment_check(a, b, 0.0)
        assert not containment_check(b, a, 0.05)

    @pytest.mark.parametrize("slack", [float("nan"), float("inf"),
                                       -float("inf"), -0.1])
    def test_bad_slack_rejected(self, slack):
        a = BallUnion(2, 0.1, np.array([[0.0, 0.0]]))
        b = BallUnion(2, 0.1, np.array([[5.0, 5.0]]))
        for inner in (a, a.centers):
            with pytest.raises(InvalidInputError, match="slack"):
                containment_check(inner, b, slack)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_point_rejected(self, bad):
        b = BallUnion(2, 0.1, np.array([[0.0, 0.0]]))
        with pytest.raises(InvalidInputError, match="finite"):
            containment_check(np.array([[0.0, 0.0], [bad, 0.0]]), b, 0.0)

    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(st.integers(1, 4), st.data())
    def test_true_is_sound(self, n, data):
        # outer centers near the inner ones, so many draws are contained
        coord = st.floats(-0.5, 0.5)
        k = data.draw(st.integers(1, 4))
        inner = np.array([[data.draw(coord) for _ in range(n)]
                          for _ in range(k)])
        outer = np.vstack([inner, inner[:2]])
        outer += np.array([[data.draw(st.floats(-0.1, 0.1)) for _ in range(n)]
                           for _ in outer])
        r, R = data.draw(st.floats(0.01, 0.3)), data.draw(st.floats(0.01, 0.3))
        slack = data.draw(st.floats(0.0, 0.2))
        if not containment_check(BallUnion(n, r, inner),
                                 BallUnion(n, R, outer), slack):
            return
        # each ball's center, its 2n axis points and 8 seeded inner points
        rng = np.random.default_rng(0)
        g = rng.standard_normal((8, n))
        g *= (r * rng.uniform(size=(8, 1)) ** (1 / n)
              / np.linalg.norm(g, axis=1, keepdims=True))
        probes = np.vstack([np.zeros((1, n)), r * np.eye(n), -r * np.eye(n), g])
        pts = (inner[:, None, :] + probes[None]).reshape(-1, n)
        d = np.linalg.norm(pts[:, None, :] - outer[None], axis=2).min(axis=1)
        assert (d <= R + slack + 1e-9).all()


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


class TestSweepCalls:
    def test_eigvalsh_never_gets_zero_rows(self, monkeypatch):
        rows, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: rows.append(a.shape[0]) or eigvalsh(a))
        for n, dim, eta, seed in [(2, 8, 0.1, 0), (2, 12, 0.05, 1),
                                  (3, 6, 0.2, 2), (3, 5, 0.3, 4)]:
            T = random_almost_commuting(n, dim, 1e-2, seed)
            for order in (None, tuple(reversed(range(n)))):
                assert not synthetic_spectrum(T, eta, order=order).is_empty
        assert rows and min(rows) > 0

    def test_repeated_sweeps_share_one_eigh(self, monkeypatch):
        calls, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: calls.append(a) or eigh(a))
        T = random_almost_commuting(3, 6, 1e-2, 9)
        first = [synthetic_spectrum(T, eta).centers for eta in (0.1, 0.2, 0.3)]
        synthetic_spectrum(T, 0.1, order=(2, 0, 1))
        assert len(calls) == 3  # one per operator, on the first sweep
        assert np.array_equal(synthetic_spectrum(T, 0.1).centers, first[0])
