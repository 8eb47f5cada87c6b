"""The truncated-shift counterexample: quasicentral cutoffs are not enough.

Truncations of the unilateral shift give Hermitian pairs whose commutator
can be made as small as we like by smoothing the cutoff, yet no commuting
pair is nearby: a Fredholm index of -1 is trapped inside the hole of the
symbol curve (the unit circle).

Run:  python3 demos/shift_counterexample.py
"""
import numpy as np

from synspec import (
    OperatorTuple,
    SymbolOperator,
    TruncationFamily,
    fredholm_index,
    hausdorff_distance,
    index_hypothesis_check,
    quasicentral_family,
    scalar_synthetic_spectrum,
    synthetic_spectrum,
)

shift = SymbolOperator.shift()

print("ramp width w | pair commutator | 2/w")
print("-" * 42)
for w in (10, 20, 40, 80):
    fam = TruncationFamily(shift, N=400, n0=10, w=w)
    _, _, diag = quasicentral_family(fam)
    print("   %3d       |     %.4f      | %.4f"
          % (w, diag["commutator_norm"], 2.0 / w))

# the sharp cutoff, by contrast, never gets below ~1/2
fam = TruncationFamily(shift, N=400, n0=10, w=10)
_, _, diag = quasicentral_family(fam, sharp=True)
print("\nsharp cutoff commutator: %.4f (stuck near 1/2)"
      % diag["commutator_norm"])

# the obstruction: index -1 at the origin
rep = fredholm_index(shift, 0.0)
print("\nwinding of z around 0: %d  =>  Fredholm index %d"
      % (rep.winding, rep.index))

check = index_hypothesis_check(shift, eta=0.1)
print("index hypothesis check at eta=0.1: %s"
      % ("pass" if check.verdict else "FAIL"))
for hole in check.holes:
    print("  hole at lambda = %.3f%+.3fj carries index %d"
          % (hole.lam.real, hole.lam.imag, hole.index))

# the hypothesis fails on the pair itself: sSp^eta(T_N) fills the quotient's
# hole (criterion 10 checks N = 100, 200 and eta = 0.1, 0.2)
t1, t2, diag = quasicentral_family(TruncationFamily(shift, N=100, n0=10, w=20))
region = synthetic_spectrum(OperatorTuple((t1, t2)), 0.2)
quotient, _ = scalar_synthetic_spectrum(shift, 0.2)
near = [int((np.linalg.norm(R.centers, axis=1) <= 0.3).sum())
        for R in (region, quotient)]
print("\nN=100, w=20, eta=0.2: commutator %.4f, centers within 0.3 of 0: "
      "%d in sSp(T_N), %d in the quotient; d_H = %.3f"
      % (diag["commutator_norm"], near[0], near[1],
         hausdorff_distance(region, quotient, 0.04)))

# a normal (self-adjoint-symbol) model has no hole and passes
normal = SymbolOperator({-1: 0.5, 1: 0.5})
print("\nnormal model (z + 1/z)/2 verdict: %s"
      % ("pass" if index_hypothesis_check(normal, 0.1).verdict else "FAIL"))
