#!/usr/bin/env python3
"""The one-dimensional anchor case, worked end to end.

The curve t -> (cosh t, sinh t) with the position field as transversal is
the smallest hypersurface this package handles (n = 0, ambient dimension 2).
Everything has a closed form there:

    Gamma = 0,  h = 1,  S = -1,  tau = 0,  xi = d/dt,  eta = dt,  phi = 0,

so the scene doubles as a regression anchor: every induced quantity must hit
those values to 1e-12, and all structure residuals must vanish.
"""

import numpy as np

from parageom import (
    contact_residual,
    fundamental_residuals,
    hyperbola_scene,
    induced_data,
    induced_structure,
    metric_residual,
    sasakian_residual,
)
from parageom.paracontact import signature_of

scene = hyperbola_scene(seed=1, num_samples=7)
print(f"hyperbola scene: {len(scene.samples)} chart points in "
      f"[-0.4, 0.4]  (t-parameter)\n")

header = f"{'t':>8}  {'Gamma':>10} {'h':>10} {'S':>10} {'tau':>10} {'xi':>10} {'eta':>10}"
print(header)
print("-" * len(header))
for u in scene.samples:
    ind = induced_data(scene, u)
    pd = induced_structure(ind)
    print(
        f"{u[0]:>8.4f}  {ind.Gamma[0, 0, 0]:>10.2e} {ind.h[0, 0]:>10.6f} "
        f"{ind.S[0, 0]:>10.6f} {ind.tau[0]:>10.2e} {pd.xi[0]:>10.6f} "
        f"{pd.eta[0]:>10.6f}"
    )

print("\nresiduals at the first sample:")
u = scene.samples[0]
ind = induced_data(scene, u)
pd = induced_structure(ind)
# The residual functions return raw residual tensors; print each one's max |.|.
gauss, cod_h, cod_s, ricci = (
    float(np.max(np.abs(r))) for r in fundamental_residuals(scene, u).values()
)
res = float(np.max(np.abs(metric_residual(pd, ind.h))))
contact = float(np.max(np.abs(contact_residual(pd, ind.h, -1.0))))
sasakian = float(np.max(np.abs(sasakian_residual(pd, ind, -1.0))))
print(f"  structure equations : gauss {gauss:.1e}, codazzi-h {cod_h:.1e}, "
      f"codazzi-S {cod_s:.1e}, ricci {ricci:.1e}")
print(f"  metric compatibility: {res:.1e}, signature {signature_of(ind.h)} (want (1, 0))")
print(f"  contact alpha = -1  : {contact:.1e}")
print(f"  sasakian alpha = -1 : {sasakian:.1e}")

worst = max(
    float(np.max(np.abs(ind.Gamma))),
    abs(ind.h[0, 0] - 1.0),
    abs(ind.S[0, 0] + 1.0),
    float(np.max(np.abs(ind.tau))),
    abs(pd.xi[0] - 1.0),
)
print(f"\nclosed-form defect across the table: {worst:.2e}  "
      f"({'OK' if worst <= 1e-12 else 'UNEXPECTED'})")
