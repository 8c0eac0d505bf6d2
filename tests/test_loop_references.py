"""The loop-free ker(eta) batteries against their pair-loop references.

COR_WZORY, LEM_CUBIC and the operational normality defect contract the whole
ker(eta) basis at once.  The references below evaluate the same identities
one basis field (or one pair of fields) at a time, as plain per-vector
formulas; both must agree to rounding on every scene family.
"""

import numpy as np
import pytest

from parageom.hypersurface import (
    hyperbola_scene,
    perturbed_scene,
    quadric_scene,
    random_graph_scene,
)
from parageom.paracomplex import random_quadric_spec
from parageom.paracontact import normality_residuals
from parageom.theorems import (
    _cor_wzory_identities,
    _lem_cubic_identities,
    _score,
    analyze_point,
    analyze_scene,
)

TOL = 1e-13


def _nabla_field(g, x_val, y_val, dy):
    """(nabla_X Y)^k for fields given by coordinates and derivatives
    (dy[k, l] = d_l Y^k)."""
    return dy @ x_val + np.einsum("klm,l,m->k", g, x_val, y_val)


def _bracket_field(x_val, dx, y_val, dy):
    return dy @ x_val - dx @ y_val


def reference_cor_wzory(pa):
    ind, pd = pa.ind, pa.pd
    if pd.n == 0:
        names = [
            "eta_nabla_zw",
            "eta_nabla_xi_z",
            "phi_nabla_zw",
            "eta_bracket_zw",
            "eta_bracket_z_xi",
        ]
        return {k: 0.0 for k in names}, names

    g, h, tau = ind.Gamma, ind.h, ind.tau
    eta, phi, xi = pd.eta, pd.phi, pd.xi
    z_vals = pd.D_basis
    z_ders = pd.dbasis  # [a, k, l]
    xi_der = pd.dxi.T  # [k, l]
    dphi = pd.dphi

    def phi_field(a):
        val = phi @ z_vals[a]
        der = np.einsum("lkm,m->kl", dphi, z_vals[a]) + phi @ z_ders[a]
        return val, der

    r1 = r2 = r3 = r4 = r5 = 0.0
    for a in range(z_vals.shape[0]):
        za, dza = z_vals[a], z_ders[a]
        pa_val, _ = phi_field(a)
        r2 = max(r2, abs(float(eta @ _nabla_field(g, xi, za, dza) - xi @ h @ pa_val)))
        br = _bracket_field(za, dza, xi, xi_der)
        r5 = max(r5, abs(float(eta @ br + xi @ h @ pa_val - tau @ za)))
        for b in range(z_vals.shape[0]):
            zb, dzb = z_vals[b], z_ders[b]
            pb_val, pb_der = phi_field(b)
            nab = _nabla_field(g, za, zb, dzb)
            r1 = max(r1, abs(float(eta @ nab - za @ h @ pb_val)))
            vec = phi @ nab - _nabla_field(g, za, pb_val, pb_der) + float(za @ h @ zb) * xi
            r3 = max(r3, float(np.max(np.abs(vec))))
            br = _bracket_field(za, dza, zb, dzb)
            r4 = max(r4, abs(float(eta @ br - za @ h @ pb_val + zb @ h @ pa_val)))
    return {
        "eta_nabla_zw": r1,
        "eta_nabla_xi_z": r2,
        "phi_nabla_zw": r3,
        "eta_bracket_zw": r4,
        "eta_bracket_z_xi": r5,
    }, []


def reference_lem_cubic(pa):
    ind, pd = pa.ind, pa.pd
    q = pa.der.Q
    names = ["cubic_phi_reflection", "cubic_kernel_vanishing", "cubic_reeb_slot"]
    if pd.n == 0:
        out = {k: 0.0 for k in names}
        out["info_h_shape_phi"] = 0.0
        return out, names
    z = pd.D_basis
    zphi = z @ pd.phi.T
    q_zz = np.einsum("ijk,aj,bk->iab", q, z, z)
    q_pp = np.einsum("ijk,aj,bk->iab", q, zphi, zphi)
    r1 = float(np.max(np.abs(q_zz + q_pp)))
    r2 = float(np.max(np.abs(np.einsum("ijk,ai,bj,ck->abc", q, z, z, z))))
    sz = z @ ind.S.T
    h_sw_phiw = np.einsum("ak,kl,al->a", sz, ind.h, zphi)
    q_xi = np.einsum("ijk,i,aj,ak->a", q, pd.xi, z, z)
    s_phi = zphi @ ind.S.T
    h_sphi_w = np.einsum("ak,kl,al->a", s_phi, ind.h, z)
    r3 = float(
        max(np.max(np.abs(q_xi + h_sw_phiw)), np.max(np.abs(h_sw_phiw + h_sphi_w)))
    )
    return {
        "cubic_phi_reflection": r1,
        "cubic_kernel_vanishing": r2,
        "cubic_reeb_slot": r3,
        "info_h_shape_phi": float(np.max(np.abs(h_sw_phiw))),
    }, []


def reference_operational_defect(pd, ind):
    """|h|-norm of S phi Z - phi S Z + tau(Z) xi, worst over the basis."""
    vals, vecs = np.linalg.eigh(0.5 * (ind.h + ind.h.T))
    habs = (vecs * np.abs(vals)) @ vecs.T
    s, tau = ind.S, ind.tau
    worst = 0.0
    for z in pd.D_basis:
        v = s @ (pd.phi @ z) - pd.phi @ (s @ z) + float(tau @ z) * pd.xi
        worst = max(worst, float(np.sqrt(v @ habs @ v)))
    return worst


def scenes():
    yield "hyperbola", hyperbola_scene(seed=90, num_samples=3)
    for n in range(5):
        yield f"quadric n={n}", quadric_scene(
            random_quadric_spec(n, 91 + n), seed=91 + n, num_samples=3
        )
    for n in range(1, 5):
        yield f"perturbed n={n}", perturbed_scene(
            random_quadric_spec(n, 96 + n), epsilon=0.1, seed=96 + n, num_samples=3
        )
    for n in range(3):
        yield f"graph n={n}", random_graph_scene(n, seed=101 + n, num_samples=3)


SCENES = list(scenes())


def assert_agree(got, want, label):
    (ids, vac), (ref_ids, ref_vac) = got, want
    assert vac == ref_vac, label
    assert list(ids) == list(ref_ids), label
    for name, value in ids.items():
        assert isinstance(value, float), (label, name)
        assert abs(value - ref_ids[name]) <= TOL, (label, name, value, ref_ids[name])


@pytest.mark.parametrize("label,scene", SCENES, ids=[label for label, _ in SCENES])
def test_batteries_match_pair_loop_references(label, scene):
    # The batteries run on the scene's batch; the references read each
    # sample analysed alone.
    batch = analyze_scene(scene)
    assert all(fault is None for fault in batch.pd.faults), batch.pd.faults
    cor, cubic = _cor_wzory_identities(batch), _lem_cubic_identities(batch)
    operational = normality_residuals(batch.pd, batch.ind)[1]
    for i, u in enumerate(scene.samples):
        pa = analyze_point(scene, u)
        row = {k: r[i] for k, r in cor.items()}
        assert_agree(_score(row, 1.0)[:2], reference_cor_wzory(pa), label)
        row = {k: r[i] for k, r in cubic.items()}
        assert_agree(_score(row, 1.0)[:2], reference_lem_cubic(pa), label)
        got = float(np.max(np.abs(operational[i])))
        want = 0.0 if pa.pd.n == 0 else reference_operational_defect(pa.pd, pa.ind)
        assert abs(got - want) <= TOL, (label, got, want)
