"""Seeded property-verification suites behind ``synspec verify``.

Each suite runs a fixed list of named properties deterministically from a
seed and returns a JSON-ready report.  Failures carry a counterexample
dump (the offending seed and parameters) so a run can be replayed.  The
property checks the suites share with the tests (winding oracle, pointwise
synthetic-spectrum oracle, witness sandwich, brick-cover facts) are public.
"""
from __future__ import annotations

import zlib

import numpy as np

from .errors import (GaplessCertificateError, InvalidInputError,
                     PointOnEssentialSpectrumError, as_index)
from .obstructions import (
    bott_index,
    certified_distance_bound,
    joint_diagonalize,
    spin_triple,
)
from .operator_core import (
    HermitianMatrix,
    OperatorTuple,
    commutator_norm,
    op_norm,
    pairwise_commutator_norms,
    random_almost_commuting,
    random_hermitian,
)
from .region_geometry import brick_cover, dilate, region_topology
from .symbol_models import (
    SymbolOperator,
    TruncationFamily,
    fredholm_index,
    quasicentral_family,
)
from .synthetic_spectrum import (
    BallUnion,
    big_theta_norm,
    containment_check,
    grid_points,
    inclusion_threshold,
    near_spectrum_witness,
    synthetic_spectrum,
)

def _sub_rng(seed: int, label: str, trial: int) -> np.random.Generator:
    h = zlib.crc32(label.encode()) % (2 ** 31)
    return np.random.default_rng(np.random.SeedSequence([seed, h, trial]))


def _sub_seed(seed: int, label: str, trial: int) -> int:
    return (seed * 1000003 + zlib.crc32(label.encode()) % 9973) * 131 + trial


class _Recorder:
    def __init__(self):
        self.properties = []

    def record(self, name: str, passed: bool, detail=None):
        entry = {"name": name, "passed": bool(passed)}
        if detail is not None:
            entry["detail"] = detail
        self.properties.append(entry)

    def failures(self, name: str, bad: list):
        self.record(name, not bad, {"failures": bad} if bad else None)

    def report(self, suite: str, trials: int, seed: int) -> dict:
        return {
            "suite": suite,
            "trials": trials,
            "seed": seed,
            "properties": self.properties,
            "all_passed": all(p["passed"] for p in self.properties),
        }


def _random_tuple_params(rng: np.random.Generator):
    n = int(rng.integers(1, 4))
    dim = int(rng.integers(2, 17))
    return n, dim


def _suite_containment(trials: int, seed: int) -> dict:
    rec = _Recorder()

    # monotonicity sSp^d subset sSp^eta (d < eta)
    bad = []
    for t in range(trials):
        rng = _sub_rng(seed, "mono", t)
        n, dim = _random_tuple_params(rng)
        T = random_almost_commuting(n, dim, 1e-2, _sub_seed(seed, "mono", t))
        small = synthetic_spectrum(T, 0.1)
        big = synthetic_spectrum(T, 0.2)
        if not containment_check(small, big, 0.0):
            bad.append({"trial": t, "n": n, "dim": dim})
    rec.failures("monotonicity", bad)

    # dilation: (sSp^{d/2})_{d/2} subset sSp^{2d} at d = 0.1
    bad = []
    ntr = max(1, trials // 4)
    for t in range(ntr):
        rng = _sub_rng(seed, "dilate", t)
        n = int(rng.integers(1, 3))
        dim = int(rng.integers(2, 17))
        T = random_almost_commuting(n, dim, 1e-2, _sub_seed(seed, "dilate", t))
        inner = dilate(synthetic_spectrum(T, 0.05), 0.05)
        outer = synthetic_spectrum(T, 0.2)
        if not containment_check(inner, outer, 0.0):
            bad.append({"trial": t, "n": n, "dim": dim})
    rec.failures("dilation", bad)

    # spectral containment: eigenvalues of T1 + i T2 land in sSp^{0.1}
    bad = []
    ntr = max(1, trials // 2)
    for t in range(ntr):
        rng = _sub_rng(seed, "spec", t)
        dim = int(rng.integers(2, 33))
        T = random_almost_commuting(2, dim, 1e-3, _sub_seed(seed, "spec", t))
        w = np.linalg.eigvals(T.ops[0].entries + 1j * T.ops[1].entries)
        pts = np.stack([w.real, w.imag], axis=1)
        region = synthetic_spectrum(T, 0.1)
        if region.is_empty or not containment_check(pts, region, 0.0):
            bad.append({"trial": t, "dim": dim})
    rec.failures("spectral_containment", bad)

    # pruning soundness: the pruned sweep finds exactly the oracle's centers
    bad = []
    for t in range(min(trials, 10)):
        rng = _sub_rng(seed, "pruning", t)
        dim = int(rng.integers(2, 7))
        T = random_almost_commuting(2, dim, 1e-2, _sub_seed(seed, "pruning", t))
        if not matches_pointwise_oracle(T, 0.25, synthetic_spectrum(T, 0.25)):
            bad.append({"trial": t, "dim": dim})
    rec.failures("pruning_soundness", bad)

    return rec.report("containment", trials, seed)


def matches_pointwise_oracle(T: OperatorTuple, eta: float,
                             region: BallUnion) -> bool:
    """True iff ``region`` has exactly the centers the definition gives.

    Evaluates ``big_theta_norm`` at every point of the region's grid
    against the sweep's ``inclusion_threshold``.  The oracle shares no
    eigenbases or bump weights with the pruned sweep of
    ``synthetic_spectrum``.
    """
    thresh = inclusion_threshold(eta)
    pts = grid_points(region.grid)
    want = pts[[big_theta_norm(T, x, eta) >= thresh for x in pts]]
    return bool(np.array_equal(region.centers, want))


def chebyshev_within(points: np.ndarray, X: np.ndarray, r: float) -> bool:
    """Every point within max-metric distance r of X.

    The 2*eta dilation of the sandwich is exact in the max metric (the
    bump supports are per-axis windows); each eta-ball center then sits
    within eta of a witness point coordinatewise, and its ball adds eta.
    """
    if points.size == 0:
        return True
    d = np.abs(points[:, None, :] - X[None, :, :]).max(axis=2).min(axis=1)
    return bool((d <= r).all())


def witness_sandwich(S: OperatorTuple, eta: float,
                     rng: np.random.Generator) -> dict:
    """Sandwich X in sSp^eta(T) in X dilated by 2 eta, for T near S.

    T is the exactly commuting S plus Hermitian noise of norm 1e-4 drawn
    from ``rng``, each coordinate scaled back into the unit ball; X is the
    joint spectrum of S.  Returns whether the witness is valid and whether
    the lower and upper containments hold.
    """
    ops = []
    for op in S.ops:
        a = op.entries + random_hermitian(S.dim, rng, norm=1e-4).entries
        s = np.linalg.norm(a, 2)
        ops.append(HermitianMatrix(a / s if s > 1.0 else a))
    T = OperatorTuple(tuple(ops), norm_bound=1.0)
    report = near_spectrum_witness(T, S, eta)
    region = synthetic_spectrum(T, eta)
    X = report.witness.points
    return {"valid": report.valid,
            "lower": containment_check(X, region, 0.0),
            "upper": chebyshev_within(region.centers, X, eta + 1e-6)}


def _suite_uniqueness(trials: int, seed: int) -> dict:
    rec = _Recorder()
    eta = 0.1

    # witness sandwich: X subset sSp^eta subset X dilated by 2 eta
    bad = []
    for t in range(trials):
        rng = _sub_rng(seed, "sandwich", t)
        n = int(rng.integers(1, 3))
        dim = int(rng.integers(2, 17))
        S = random_almost_commuting(n, dim, eta / 4, _sub_seed(seed, "sand", t),
                                    exact=True)
        checks = witness_sandwich(S, eta, rng)
        if not all(checks.values()):
            bad.append({"trial": t, "n": n, "dim": dim, **checks})
    rec.failures("witness_sandwich", bad)

    # nonemptiness under small commutators
    bad = []
    for t in range(trials):
        rng = _sub_rng(seed, "nonempty", t)
        n, dim = _random_tuple_params(rng)
        T = random_almost_commuting(n, dim, 1e-3, _sub_seed(seed, "nonempty", t))
        if synthetic_spectrum(T, eta).is_empty:
            bad.append({"trial": t, "n": n, "dim": dim})
    rec.failures("nonemptiness", bad)

    return rec.report("uniqueness", trials, seed)


def brick_cover_facts(X: np.ndarray, k: int, cover) -> dict | None:
    """None if ``cover`` satisfies the brick-cover facts for X, else the
    first failing fact.

    (i) X is covered; (ii) every brick meets X (1e-9 slack); (iii) every
    brick point is within sqrt(n)/k (+1e-9) of X, sampled on a 4-point
    grid per axis plus the brick center.
    """
    n = X.shape[1]
    if not cover.contains_points(X).all():
        return {"fact": "i"}
    lo = cover.corner_points()
    meets = np.all((X[None] >= lo[:, None] - 1e-9)
                   & (X[None] <= lo[:, None] + 1.0 / k + 1e-9), axis=2)
    if not meets.any(axis=1).all():
        return {"fact": "ii"}
    axes = np.linspace(0.0, 1.0, 4)
    offs = np.stack(np.meshgrid(*([axes] * n), indexing="ij"),
                    axis=-1).reshape(-1, n)
    offs = np.vstack([offs, np.full((1, n), 0.5)]) / k
    from scipy.spatial import cKDTree
    d, _ = cKDTree(X).query((lo[:, None, :] + offs[None]).reshape(-1, n))
    if d.max() > np.sqrt(n) / k + 1e-9:
        return {"fact": "iii", "max_dist": float(d.max())}
    return None


def _suite_bricks(trials: int, seed: int) -> dict:
    rec = _Recorder()

    bad = []
    for t in range(trials):
        rng = _sub_rng(seed, "bricks", t)
        n = int(rng.integers(1, 4))
        k = int(rng.choice([5, 10, 20]))
        npts = int(rng.integers(1, 51))
        X = rng.uniform(-1, 1, size=(npts, n))
        failure = brick_cover_facts(X, k, brick_cover(X, k))
        if failure:
            bad.append({"trial": t, **failure})
    rec.failures("brick_cover_facts", bad)

    # canned topology cases
    single = BallUnion(2, 0.15, np.array([[0.0, 0.0]]))
    topo1 = region_topology(single, 0.01)
    ok1 = topo1.component_count == 1 and len(topo1.holes) == 0

    ang = 2 * np.pi * np.arange(12) / 12
    ring = BallUnion(2, 0.15, 0.5 * np.stack([np.cos(ang), np.sin(ang)], axis=1))
    topo2 = region_topology(ring, 0.005)
    ok2 = topo2.component_count == 1 and len(topo2.holes) == 1
    if ok2:
        rep = topo2.holes[0].representative
        ok2 = np.linalg.norm(rep) < 0.2

    two = BallUnion(2, 0.1, np.array([[-0.5, 0.0], [0.5, 0.0]]))
    topo3 = region_topology(two, 0.01)
    ok3 = topo3.component_count == 2 and len(topo3.holes) == 0

    # resolution stability: halving resolution keeps the counts
    topo2b = region_topology(ring, 0.0025)
    ok4 = (topo2b.component_count == topo2.component_count
           and len(topo2b.holes) == len(topo2.holes))

    rec.record("topology_single_ball", ok1)
    rec.record("topology_ring_hole", ok2)
    rec.record("topology_two_components", ok3)
    rec.record("topology_resolution_stability", ok4)

    return rec.report("bricks", trials, seed)


def winding_oracle(op: SymbolOperator, lam: complex) -> int:
    """Winding of the symbol curve around lam, counted from polynomial roots.

    With a = max(0, -min m), p(z) = z^a (s(z) - lam) is a polynomial, and by
    the argument principle the winding is the number of roots of p inside
    the unit circle minus a (the Toeplitz index theorem of Gohberg and
    Krein).  The roots come from ``np.roots``, after coefficients below eps
    times the largest are set to 0; a root within 1e-8 of the circle, or
    p = 0, raises PointOnEssentialSpectrumError.
    """
    a = max(0, -min(op.coeffs))
    coef = np.zeros(a + max(0, max(op.coeffs)) + 1, dtype=complex)
    for m, c in op.coeffs.items():
        coef[m + a] += c
    coef[a] -= lam
    if not coef.any():
        raise PointOnEssentialSpectrumError("the symbol is constant at lambda")
    # a coefficient below eps times the largest moves p by less than its
    # rounding, and as the leading one it would overflow the companion matrix
    coef[np.abs(coef) < np.finfo(float).eps * np.abs(coef).max()] = 0
    radii = np.abs(np.roots(coef[::-1]))
    if radii.size and np.abs(radii - 1).min() < 1e-8:
        raise PointOnEssentialSpectrumError(
            "a root lies within 1e-8 of the unit circle"
        )
    return int((radii < 1).sum()) - a


def _suite_winding(trials: int, seed: int) -> dict:
    rec = _Recorder()
    shift = SymbolOperator.shift()
    zsq = SymbolOperator({2: 1.0})

    rep = fredholm_index(shift, 0.0)
    ok = rep.index == -1 and rep.index == -winding_oracle(shift, 0.0)
    rec.record("shift_index", ok, {"index": rep.index})

    rep = fredholm_index(zsq, 0.0)
    ok = rep.index == -2 and rep.index == -winding_oracle(zsq, 0.0)
    rec.record("square_index", ok, {"index": rep.index})

    # index 0 in the unbounded component
    bad = []
    rng = _sub_rng(seed, "outside", 0)
    for t in range(trials):
        op = [shift, zsq, SymbolOperator({-1: 0.5, 1: 0.5, 0: 0.3})][t % 3]
        r = op.l1_norm + 0.1 + rng.uniform(0, 2)
        ang = rng.uniform(0, 2 * np.pi)
        lam = r * np.exp(1j * ang)
        if fredholm_index(op, lam).index != 0:
            bad.append({"trial": t, "lambda": [lam.real, lam.imag]})
    rec.failures("outside_index_zero", bad)

    # normal models (real symmetric coefficients): winding 0 off the curve
    bad = []
    normal = SymbolOperator({-1: 0.5, 1: 0.5})
    rng = _sub_rng(seed, "normal", 0)
    for t in range(trials):
        lam = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2))
        if fredholm_index(normal, lam).winding != 0:
            bad.append({"trial": t, "lambda": [lam.real, lam.imag]})
    rec.failures("normal_model_winding_zero", bad)

    # quasicentral decay: commutator <= 2/w, decreasing in w
    norms = []
    for w in range(10, 101, 10):
        fam = TruncationFamily(shift, 400, 10, w)
        _, _, diag = quasicentral_family(fam)
        norms.append(diag["commutator_norm"])
        if diag["commutator_norm"] > 2.0 / w + 1e-9:
            break
    decreasing = all(b < a + 1e-12 for a, b in zip(norms, norms[1:]))
    ok = len(norms) == 10 and decreasing
    rec.record("quasicentral_decay", ok, {"norms": [float(x) for x in norms]})

    return rec.report("winding", trials, seed)


def _suite_obstruction(trials: int, seed: int) -> dict:
    rec = _Recorder()

    T = spin_triple(20)
    comms = pairwise_commutator_norms(T)
    rep = bott_index(*T.ops)
    ok = (np.abs(comms - 0.05).max() < 1e-9 and abs(rep.value) == 1
          and rep.gap > 0 and certified_distance_bound(T) == rep)
    rec.record("spin_triple_j20", ok,
               {"value": rep.value, "gap": rep.gap, "bound": rep.bound})

    # value invariant under perturbations below gap/3
    bad = []
    T10 = spin_triple(10)
    base = bott_index(*T10.ops)
    ntr = min(trials, 50)
    for t in range(ntr):
        rng = _sub_rng(seed, "perturb", t)
        eps = 0.9 * base.gap / 3
        ops = tuple(
            HermitianMatrix(op.entries + random_hermitian(op.dim, rng,
                                                          norm=eps).entries)
            for op in T10.ops
        )
        if bott_index(*ops).value != base.value:
            bad.append({"trial": t})
    rec.failures("perturbation_invariance", bad)

    # gapped commuting triples have value 0
    bad = []
    for t in range(trials):
        rng = _sub_rng(seed, "commuting", t)
        dim = int(rng.integers(2, 17))
        S = random_almost_commuting(3, dim, 0.5, _sub_seed(seed, "comm", t),
                                    exact=True)
        # push joint eigenvalues away from the origin so B stays gapped
        ops = tuple(
            HermitianMatrix(op.entries / 2 + 0.4 * np.eye(dim)) for op in S.ops
        )
        try:
            if bott_index(*ops).value != 0:
                bad.append({"trial": t, "dim": dim})
        except GaplessCertificateError:
            continue  # singular certificate: no claim to check
    rec.failures("commuting_value_zero", bad)

    # orientation: swapping the first two coordinates flips the sign
    a = rep.value
    b = bott_index(T.ops[1], T.ops[0], T.ops[2]).value
    rec.record("orientation_antisymmetry", a == -b, {"value": a, "swapped": b})

    return rec.report("obstruction", trials, seed)


def _suite_approximant(trials: int, seed: int) -> dict:
    rec = _Recorder()

    # output commutes exactly, descent is monotone
    bad = []
    for t in range(trials):
        rng = _sub_rng(seed, "approx", t)
        n = int(rng.integers(2, 4))
        dim = int(rng.integers(2, 25))
        delta = float(rng.choice([1e-1, 1e-2, 1e-3]))
        T = random_almost_commuting(n, dim, delta, _sub_seed(seed, "approx", t))
        rep = joint_diagonalize(T)
        comms = pairwise_commutator_norms(rep.S)
        trace = np.asarray(rep.objective_trace)
        monotone = bool(np.all(np.diff(trace) <= 1e-10))
        if comms.max() > 1e-10 or not monotone:
            bad.append({"trial": t, "n": n, "dim": dim,
                        "max_comm": float(comms.max()), "monotone": monotone})
    rec.failures("commuting_output_and_descent", bad)

    # exact 2x2 case: S1 = 0, distance = eps
    eps = 0.01
    T = OperatorTuple((
        HermitianMatrix(np.array([[0, eps], [eps, 0]], dtype=complex)),
        HermitianMatrix(np.diag([1.0, -1.0]).astype(complex)),
    ))
    rep = joint_diagonalize(T)
    ok = (abs(rep.max_distance - eps) < 1e-9
          and op_norm(rep.S.ops[0]) < 1e-9
          and commutator_norm(rep.S.ops[0], rep.S.ops[1]) < 1e-12)
    rec.record("two_by_two_exact", ok, {"max_distance": rep.max_distance})

    # already-commuting input is returned unchanged
    S = random_almost_commuting(3, 12, 0.3, _sub_seed(seed, "exactin", 0),
                                exact=True)
    rep = joint_diagonalize(S)
    rec.record("commuting_input_fixed", rep.max_distance <= 1e-9,
               {"max_distance": rep.max_distance})

    # spin triple: achieved distance dominates the certified bound
    T20 = spin_triple(20)
    bound = certified_distance_bound(T20)
    rep = joint_diagonalize(T20)
    rec.record("spin_distance_vs_bound", rep.max_distance >= bound.bound,
               {"max_distance": rep.max_distance, "bound": bound.bound})

    return rec.report("approximant", trials, seed)


_SUITE_FNS = {
    "containment": _suite_containment,
    "uniqueness": _suite_uniqueness,
    "bricks": _suite_bricks,
    "winding": _suite_winding,
    "obstruction": _suite_obstruction,
    "approximant": _suite_approximant,
}
SUITES = tuple(_SUITE_FNS)


def run_suite(suite: str, trials: int = 50, seed: int = 0) -> dict:
    """Run one named property suite; returns the JSON-ready report."""
    if suite not in _SUITE_FNS:
        raise InvalidInputError(
            "unknown suite %r (choose from %s)" % (suite, ", ".join(SUITES))
        )
    trials = as_index(trials, "trials must be an integer >= 1", 1)
    seed = as_index(seed, "seed must be an integer >= 0", 0)
    return _SUITE_FNS[suite](trials, seed)
