#!/usr/bin/env python3
"""The hyperquadric classification, run in both directions.

Forward: on any scene whose induced structure is metric, the cubic form
vanishes identically, so the image must be a piece of a hyperquadric.

Converse: every centered quadric x'Ax = 1 whose matrix anticommutes with the
half-swap involution (block form [[P, R], [-R, -P]], P symmetric, R
antisymmetric) induces, via the position transversal C = x, a *metric*
structure with shape operator -Id, vanishing transversal form, and the
para-(-1)-contact / para-(-1)-Sasakian conditions.

A J-symmetric matrix (a sphere, say) breaks the block structure and the
battery catches it immediately.
"""

import numpy as np

from parageom import QuadricSpec, random_quadric_spec, verify_quadric_converse
from parageom.paracomplex import anticommutator_residual

KEYS = (
    "j_tangency",
    "metric",
    "s_plus_id",
    "tau_norm",
    "cubic_max",
    "contact_minus_one",
    "sasakian_minus_one",
    "nijenhuis",
    "operational",
)


def battery_table(report):
    # One column per identity, one value per sample (None where skipped).
    worst = {
        k: max((abs(v) for v in report.identities[k] if v is not None), default=0.0)
        for k in KEYS
    }
    for k in KEYS:
        print(f"    {k:<20} {worst[k]:>12.3e}")


print("== random block quadrics, n = 0, 1, 2 " + "=" * 26)
for n, seed in [(0, 3), (1, 7), (2, 11)]:
    spec = random_quadric_spec(n, seed)
    report = verify_quadric_converse(spec, num_samples=20, seed=seed)
    print(f"\nn = {n}, seed = {seed}: ambient dim {spec.ambient_dim}, "
          f"|det A| = {abs(np.linalg.det(spec.A)):.3f}, "
          f"anticommutator residual {np.abs(anticommutator_residual(spec.A)).max():.1e}")
    print(f"  battery: {report.status.upper()} over {len(report.skip_reasons)} samples, "
          f"signature {report.signatures[0]}")
    battery_table(report)

print("\n== a sphere-style matrix for contrast " + "=" * 26)
bad = QuadricSpec(n=1, P=np.eye(2), R_skew=np.zeros((2, 2)))
bad.A = np.eye(4)  # bypass the block constructor: x'x = 1
report = verify_quadric_converse(bad, num_samples=10, seed=5)
print(f"A = I (anticommutator residual {np.abs(anticommutator_residual(bad.A)).max():.0f}): "
      f"battery -> {report.status.upper()}")
worst_tangency = max(report.identities["j_tangency"])
print(f"worst J-tangency residual of C = x: {worst_tangency:.3f} "
      "(the position field is no longer J-tangent)")
