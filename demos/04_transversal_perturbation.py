#!/usr/bin/env python3
"""How the structure degrades when the transversal leaves the position field.

Replace C = x by C = x + eps * W with W tangent to the J-invariant
distribution.  The perturbed field is still J-tangent (so the induced
structure exists for every eps) but metric compatibility, S = -Id and
tau = 0 all fail at order eps.  The table shows the linear decay as
eps -> 0; at eps = 0 the scene is exactly the unperturbed quadric.
"""

import numpy as np

from parageom import perturbed_scene, random_quadric_spec
from parageom.theorems import analyze_scene

spec = random_quadric_spec(1, seed=42)
base = perturbed_scene(spec, epsilon=0.1, seed=42, num_samples=15)

print("quadric n = 1, seed 42; perturbation direction fixed, 15 samples\n")
print(f"{'eps':>10}  {'metric':>12}  {'|S + Id|':>12}  {'|tau|':>12}  {'tangency':>12}")
print("-" * 66)
for eps in (0.1, 0.03, 0.01, 0.003, 0.001, 0.0):
    scene = perturbed_scene(
        spec,
        epsilon=eps,
        seed=42,
        base_point=base.params["base_point"],
        basis=base.params["basis"],
        direction=base.params["direction"],
        samples=base.samples,
    )
    # One batched analysis of all samples; each column is its worst sample.
    batch = analyze_scene(scene)
    assert all(fault is None for fault in batch.pd.faults)
    m = batch.ind.S.shape[-1]
    metric = float(np.max(np.abs(batch.metric)))
    s_def = float(np.max(np.abs(batch.ind.S + np.eye(m))))
    tau = float(np.max(np.abs(batch.ind.tau)))
    tang = float(np.max(batch.pd.tangency))
    print(f"{eps:>10.4g}  {metric:>12.3e}  {s_def:>12.3e}  {tau:>12.3e}  {tang:>12.3e}")

print("\nthe J-tangency column stays at roundoff for every eps: the")
print("perturbation moves the transversal inside the J-tangent class, so")
print("only the metric-level conditions degrade, and they do so linearly.")
