"""Acceptance gate: the ten project-level criteria, run end to end.

Each test prints a PASS line with its headline numbers.  Trial counts are
fixed here, and the tolerances here and in the shared checks of
``synspec.verify``; none may be loosened to make a run green.
"""
import os
import time

import numpy as np

from synspec import (
    HermitianMatrix,
    OperatorTuple,
    SymbolOperator,
    TruncationFamily,
    bott_index,
    brick_cover,
    certified_distance_bound,
    containment_check,
    dilate,
    fredholm_index,
    hausdorff_distance,
    index_hypothesis_check,
    joint_diagonalize,
    pairwise_commutator_norms,
    quasicentral_family,
    random_almost_commuting,
    random_hermitian,
    scalar_synthetic_spectrum,
    spin_triple,
    synthetic_spectrum,
)
from synspec.io_json import dump_canonical, dumps_canonical
from synspec.verify import (
    brick_cover_facts,
    run_suite,
    winding_oracle,
    witness_sandwich,
)


def test_criterion_1_monotonicity_and_dilation():
    t0 = time.time()
    failures = []
    for t in range(200):
        rng = np.random.default_rng(10_000 + t)
        n = 1 + t % 3
        dim = int(rng.integers(2, 25 if n == 3 else 41))
        T = random_almost_commuting(n, dim, 1e-2, 10_000 + t)
        if n > 1:
            assert pairwise_commutator_norms(T).max() < 1e-2
        s_half = synthetic_spectrum(T, 0.05, grid_cap=2 ** 26)
        s_small = synthetic_spectrum(T, 0.1, grid_cap=2 ** 26)
        s_big = synthetic_spectrum(T, 0.2)
        if not containment_check(s_small, s_big, 0.0):
            failures.append((t, "monotonicity"))
        if not containment_check(dilate(s_half, 0.05), s_big, 0.0):
            failures.append((t, "dilation"))
    elapsed = time.time() - t0
    assert failures == []
    assert elapsed < 600
    print("PASS criterion 1: 200/200 tuples, %.0fs" % elapsed)


def test_criterion_2_spectral_containment():
    t0 = time.time()
    for t in range(100):
        rng = np.random.default_rng(20_000 + t)
        dim = int(rng.integers(2, 65))
        T = random_almost_commuting(2, dim, 1e-3, 20_000 + t)
        assert pairwise_commutator_norms(T).max() < 1e-3
        w = np.linalg.eigvals(T.ops[0].entries + 1j * T.ops[1].entries)
        pts = np.stack([w.real, w.imag], axis=1)
        region = synthetic_spectrum(T, 0.1)
        assert containment_check(pts, region, 0.0), t
    elapsed = time.time() - t0
    assert elapsed < 300
    print("PASS criterion 2: 100/100 pairs, %.0fs" % elapsed)


def test_criterion_3_uniqueness_sandwich():
    eta = 0.1
    for t in range(50):
        rng = np.random.default_rng(30_000 + t)
        dim = int(rng.integers(2, 25))
        S = random_almost_commuting(2, dim, eta / 4, 30_000 + t, exact=True)
        checks = witness_sandwich(S, eta, rng)
        assert checks == {"valid": True, "lower": True, "upper": True}, t
    print("PASS criterion 3: 50/50 sandwiches")


def test_criterion_4_brick_cover_facts():
    for t in range(200):
        rng = np.random.default_rng(40_000 + t)
        n = 1 + t % 3
        k = [5, 10, 20][(t // 3) % 3]
        npts = int(rng.integers(1, 51))
        X = rng.uniform(-1, 1, size=(npts, n))
        assert brick_cover_facts(X, k, brick_cover(X, k)) is None, t
    print("PASS criterion 4: 200/200 clouds")


def test_criterion_5_index_oracle():
    shift = SymbolOperator.shift()
    zsq = SymbolOperator({2: 1.0})
    assert fredholm_index(shift, 0.0).index == -1 == -winding_oracle(shift, 0.0)
    assert fredholm_index(zsq, 0.0).index == -2 == -winding_oracle(zsq, 0.0)
    rng = np.random.default_rng(5)
    for op, want in ((shift, -1), (zsq, -2)):
        for _ in range(20):
            r = 0.8 * np.sqrt(rng.uniform(0, 1))
            lam = r * np.exp(2j * np.pi * rng.uniform())
            rep = fredholm_index(op, lam)
            assert rep.index == want == -winding_oracle(op, lam)
    print("PASS criterion 5: oracle match, constant across 20 points per hole")


def test_criterion_6_counterexample_pair():
    t0 = time.time()
    shift = SymbolOperator.shift()
    norms = []
    for w in range(10, 101, 10):
        fam = TruncationFamily(shift, 400, 10, w)
        _, _, diag = quasicentral_family(fam)
        assert diag["commutator_norm"] <= 2.0 / w, w
        norms.append(diag["commutator_norm"])
    assert all(b < a for a, b in zip(norms, norms[1:]))
    rep = index_hypothesis_check(shift, 0.1)
    assert not rep.verdict
    assert [h.index for h in rep.holes] == [-1]
    elapsed = time.time() - t0
    assert elapsed < 120
    print("PASS criterion 6: commutators <= 2/w, index-check fail, %.0fs"
          % elapsed)


def test_criterion_7_triple_obstruction():
    t0 = time.time()
    T = spin_triple(20)
    comms = pairwise_commutator_norms(T)
    assert np.abs(comms - 0.05).max() < 1e-9
    rep = bott_index(*T.ops)
    assert abs(rep.value) == 1
    assert rep.gap > 0
    bound = certified_distance_bound(T)
    assert bound.bound == rep.gap / 3 > 0
    approx = joint_diagonalize(T)
    assert approx.max_distance >= bound.bound
    rng = np.random.default_rng(77)
    for _ in range(50):
        eps = 0.99 * rep.gap / 3
        ops = tuple(
            HermitianMatrix(op.entries
                            + random_hermitian(T.dim, rng, norm=eps).entries)
            for op in T.ops
        )
        assert bott_index(*ops).value == rep.value
    elapsed = time.time() - t0
    assert elapsed < 180
    print("PASS criterion 7: value %+d, gap %.3f, distance %.3f >= %.3f, %.0fs"
          % (rep.value, rep.gap, approx.max_distance, bound.bound, elapsed))


def test_criterion_8_approximant_scatter(tmp_path):
    t0 = time.time()
    deltas = [1e-1, 1e-2, 1e-3]
    scatter = []
    for t in range(100):
        rng = np.random.default_rng(80_000 + t)
        delta = deltas[t % 3]
        dim = int(rng.integers(8, 65))
        T = random_almost_commuting(2, dim, delta, 80_000 + t)
        rep = joint_diagonalize(T)
        assert pairwise_commutator_norms(rep.S).max() <= 1e-10, t
        scatter.append({"delta": delta, "dim": dim,
                        "max_distance": float(rep.max_distance),
                        "sweeps": rep.sweeps})
    medians = {
        d: float(np.median([s["max_distance"] for s in scatter
                            if s["delta"] == d]))
        for d in deltas
    }
    assert medians[1e-3] <= medians[1e-2] <= medians[1e-1]
    out = tmp_path / "delta_eps_scatter.json"
    dump_canonical(
        {"points": scatter, "medians": {"%g" % d: medians[d] for d in deltas}},
        str(out),
    )
    # the committed scatter pins all 100 approximants, on one numpy and BLAS
    # build as the verify artifacts are
    committed = os.path.join(os.path.dirname(__file__), os.pardir, "artifacts",
                             "delta_eps_scatter.json")
    with open(committed, "rb") as f:
        assert out.read_bytes() == f.read()
    print("PASS criterion 8: medians %s, %.0fs"
          % (medians, time.time() - t0))


def test_criterion_9_determinism():
    for suite, trials in (("winding", 5), ("obstruction", 3), ("bricks", 10)):
        a = dumps_canonical(run_suite(suite, trials=trials, seed=11))
        b = dumps_canonical(run_suite(suite, trials=trials, seed=11))
        assert a == b, suite
    # artifact-level check through the CLI
    import tempfile

    from synspec.cli import main

    with tempfile.TemporaryDirectory() as td:
        pa, pb = os.path.join(td, "a.json"), os.path.join(td, "b.json")
        for p in (pa, pb):
            assert main(["verify", "--suite", "winding", "--trials", "3",
                         "--seed", "2", "--out", p]) == 0
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            assert fa.read() == fb.read()
    print("PASS criterion 9: byte-identical artifacts")


def test_criterion_10_hypothesis_fails_on_the_counterexample():
    """sSp^eta(T_N) stays far from the quotient spectrum as the commutator of
    the truncated-shift pair falls: its centers fill the quotient's hole."""
    t0 = time.time()
    shift = SymbolOperator.shift()
    rows = []
    for N in (100, 200):
        w = N // 5
        t1, t2, diag = quasicentral_family(TruncationFamily(shift, N, 10, w))
        assert diag["commutator_norm"] <= 2.0 / w, N
        T = OperatorTuple((t1, t2))
        for eta in (0.1, 0.2):
            region = synthetic_spectrum(T, eta)
            quotient, _ = scalar_synthetic_spectrum(shift, eta)
            near = [int((np.linalg.norm(R.centers, axis=1) <= 0.3).sum())
                    for R in (region, quotient)]
            assert near[0] > 0 and near[1] == 0, (N, eta, near)
            d = hausdorff_distance(region, quotient, eta / 5)
            assert d >= 0.5, (N, eta, d)
            rows.append("N=%d eta=%g d_H=%.3f" % (N, eta, d))
    elapsed = time.time() - t0
    assert elapsed < 120
    print("PASS criterion 10: %s, %.0fs" % ("; ".join(rows), elapsed))
