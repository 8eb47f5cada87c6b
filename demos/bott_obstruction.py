"""Bott obstruction for Hermitian triples, with a certified distance bound.

The spin triple (jx, jy, jz)/j almost commutes (commutators ~ 1/j) but its
Bott index is +1, so every exactly commuting triple stays at least gap/3
away.  The Jacobi joint-diagonalization optimizer confirms the bound from
the other side: its best commuting approximant lands farther than gap/3.

Run:  python3 demos/bott_obstruction.py
"""
import numpy as np

from synspec import (
    bott_index,
    certified_distance_bound,
    joint_diagonalize,
    pairwise_commutator_norms,
    spin_triple,
)

for j in (5, 10, 20):
    T = spin_triple(j)
    rep = bott_index(*T.ops)
    print("j = %2d: dim %2d, max commutator %.4f, Bott value %+d, gap %.3f"
          % (j, T.dim, pairwise_commutator_norms(T).max(),
             rep.value, rep.gap))

T = spin_triple(20)
bound = certified_distance_bound(T)
print("\ncertified lower bound on distance to commuting triples: %.4f"
      % bound.bound)
print("caveat: a commuting triple whose own certificate is singular evades the "
      "signature argument; the bound rules out gapped commuting triples only")

print("\nrunning Jacobi joint diagonalization on the j=20 triple ...")
approx = joint_diagonalize(T)
print("sweeps: %d (%s), residual off-norm objective: %.2e"
      % (approx.sweeps, approx.stop_reason, approx.objective_trace[-1]))
print("distance to the commuting output: %.4f  (certified floor %.4f)"
      % (approx.max_distance, bound.bound))
assert approx.max_distance >= bound.bound

# a commuting triple on the sphere has Bott value 0 and no obstruction
rng = np.random.default_rng(0)
pts = rng.standard_normal((8, 3))
pts /= np.linalg.norm(pts, axis=1, keepdims=True)
from synspec import HermitianMatrix

ops = tuple(HermitianMatrix(np.diag(pts[:, i]).astype(complex))
            for i in range(3))
print("\ncommuting sphere triple: Bott value %d" % bott_index(*ops).value)
