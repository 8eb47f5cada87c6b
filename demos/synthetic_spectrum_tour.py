"""Tour of the eta-synthetic spectrum on an almost-commuting pair.

Builds an exactly commuting pair, nudges it off-commuting, and shows how
the synthetic spectrum tracks the joint eigenvalues while growing
monotonically in eta.

Run:  python3 demos/synthetic_spectrum_tour.py
"""
import numpy as np

from synspec import (
    HermitianMatrix,
    OperatorTuple,
    containment_check,
    dilate,
    hausdorff_distance,
    joint_eigensystem,
    near_spectrum_witness,
    pairwise_commutator_norms,
    random_almost_commuting,
    random_hermitian,
    synthetic_spectrum,
)

# an exactly commuting pair and a hand-perturbed copy of it
S = random_almost_commuting(2, 12, 0.05, seed=42, exact=True)
rng = np.random.default_rng(7)
T = OperatorTuple(tuple(
    HermitianMatrix(op.entries / 1.02
                    + random_hermitian(12, rng, norm=0.01).entries)
    for op in S.ops
))
print("commutator of S: %.2e" % pairwise_commutator_norms(S).max())
print("commutator of T: %.2e" % pairwise_commutator_norms(T).max())

_, joint = joint_eigensystem(S)
print("\njoint spectrum of S has %d points" % joint.shape[0])

for eta in (0.05, 0.1, 0.2):
    region = synthetic_spectrum(T, eta)
    print("sSp^%.2f(T): %4d centers on a %d^2 grid (k = %d)"
          % (eta, region.centers.shape[0],
             2 * region.grid.k + 1, region.grid.k))

# the three defining inclusions, all with zero slack
s05 = synthetic_spectrum(T, 0.05)
s10 = synthetic_spectrum(T, 0.1)
s20 = synthetic_spectrum(T, 0.2)
print("\njoint spectrum inside sSp^0.1:   %s"
      % containment_check(joint, s10, 0.0))
print("sSp^0.1 inside sSp^0.2:          %s"
      % containment_check(s10, s20, 0.0))
print("dilated sSp^0.05 inside sSp^0.2: %s"
      % containment_check(dilate(s05, 0.05), s20, 0.0))

# S itself is a valid near-spectrum witness for T at eta = 0.1
rep = near_spectrum_witness(T, S, 0.1)
print("\nwitness valid: %s (max distance %.3f)"
      % (rep.valid, rep.max_distance))

# how far apart are consecutive scales, in Hausdorff distance?
print("\nHausdorff(sSp^0.1, sSp^0.2) = %.3f"
      % hausdorff_distance(s10, s20, 0.005))
