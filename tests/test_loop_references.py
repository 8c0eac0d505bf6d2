"""Fast paths against the plain formulas they replaced.

COR_WZORY, LEM_CUBIC and the operational normality defect contract the whole
ker(eta) basis at once.  The references below evaluate the same identities
one basis field (or one pair of fields) at a time, as plain per-vector
formulas; both must agree to rounding on every scene family.

The radial immersion and its perturbed transversal are evaluated with affine
products and the ker(eta) basis by one QR with a closed-form derivative; the
references keep the general jet products and the modified Gram-Schmidt in
jet arithmetic that they replaced.
"""

import dataclasses

import numpy as np
import pytest

from parageom import paracontact
from parageom.hypersurface import (
    eval_immersion,
    hyperbola_scene,
    perturbed_scene,
    quadric_scene,
    random_graph_scene,
)
from parageom.jets import jet_space
from parageom.paracomplex import apply_J, random_quadric_spec
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


def reference_eval_immersion(scene, u):
    """f and C of a radial chart by general jet products:
    f = y sqrt(y'Ay)^-1 and W = w - (Aw . f) f - (AJw . f) J f."""
    space = jet_space(scene.chart_dim)
    spec = scene.params["quadric"]
    seeds = space.seeds(u)
    y = space.const(scene.params["base_point"]) + np.einsum(
        "ir,...ic->...rc", scene.params["basis"], seeds
    )
    ay = np.einsum("rs,...sc->...rc", spec.A, y)
    q = space.mul(y, ay).sum(axis=-2)
    f = space.mul(y, space.inv(space.sqrt(q))[..., None, :])
    if scene.family == "quadric_radial":
        return f, f
    eps = np.asarray(scene.params["epsilon"])[..., None, None]
    w = scene.params["direction"]
    s1 = (spec.A @ w) @ f
    s2 = (spec.A @ apply_J(w)) @ f
    w_field = space.const(w) - space.mul(s1[..., None, :], f) - space.mul(
        s2[..., None, :], apply_J(f, axis=-2)
    )
    return f, f + eps * w_field


def reference_kernel_basis(n, eta_jets, xi_jets):
    """(pivots, basis jets) of modified Gram-Schmidt in jet arithmetic on
    the candidates e_i - eta_i xi, pivoting on residual value norms."""
    m = eta_jets.shape[-1] - 1
    space = jet_space(m, 1)
    cand = space.const(np.eye(m)) - space.mul(eta_jets[:, None, :], xi_jets[None, :, :])
    used = np.zeros(m, dtype=bool)
    pivots, chosen = [], []
    for _ in range(2 * n):
        norms = np.where(used, -np.inf, np.linalg.norm(cand[..., 0], axis=-1))
        best = int(np.argmax(norms))
        used[best] = True
        v = cand[best]
        v = space.div(v, space.sqrt(space.mul(v, v).sum(axis=-2))[None, :])
        pivots.append(best)
        chosen.append(v)
        coef = space.mul(cand, v[None]).sum(axis=-2)
        cand = cand - space.mul(coef[:, None, :], v[None])
    return pivots, np.array(chosen).reshape(2 * n, m, m + 1)


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
    cor, cor_vac = _score(_cor_wzory_identities(batch), 1.0)[:2]
    cubic, cubic_vac = _score(_lem_cubic_identities(batch), 1.0)[:2]
    operational = normality_residuals(batch.pd, batch.ind)[1]
    for i, u in enumerate(scene.samples):
        pa = analyze_point(scene, u)
        row = {k: values[i] for k, values in cor.items()}
        assert_agree((row, cor_vac), reference_cor_wzory(pa), label)
        row = {k: values[i] for k, values in cubic.items()}
        assert_agree((row, cubic_vac), reference_lem_cubic(pa), label)
        got = float(np.max(np.abs(operational[i])))
        want = 0.0 if pa.pd.n == 0 else reference_operational_defect(pa.pd, pa.ind)
        assert abs(got - want) <= TOL, (label, got, want)


RADIAL = [(label, s) for label, s in SCENES if s.family in ("quadric_radial", "perturbed_transversal")]


def assert_close(got, want, rtol, label):
    assert got.shape == want.shape, label
    gap = float(np.max(np.abs(got - want)))
    assert gap <= rtol * float(np.max(np.abs(want))), (label, gap)


@pytest.mark.parametrize("label,scene", RADIAL, ids=[label for label, _ in RADIAL])
def test_affine_immersion_products_match_general_products(label, scene):
    u = np.stack(scene.samples)
    f, c = eval_immersion(scene, u)
    want_f, want_c = reference_eval_immersion(scene, u)
    assert_close(f, want_f, 1e-14, label)
    assert_close(c, want_c, 1e-14, label)
    for i, point in enumerate(u):
        f1, c1 = eval_immersion(scene, point)
        np.testing.assert_array_equal(f1, f[i])
        np.testing.assert_array_equal(c1, c[i])
    if scene.family == "perturbed_transversal":
        # A column of epsilons against the stack: (E, S, ...) at once.
        column = np.array([0.3, 0.0, 1e-6, 2.5])[:, None]
        swept = dataclasses.replace(scene, params={**scene.params, "epsilon": column})
        f, c = eval_immersion(swept, u)
        want_f, want_c = reference_eval_immersion(swept, u)
        assert c.shape == (len(column),) + want_f.shape[-3:]
        assert_close(f, np.broadcast_to(want_f, f.shape), 1e-14, label)
        assert_close(c, want_c, 1e-14, label)


@pytest.mark.parametrize("label,scene", SCENES, ids=[label for label, _ in SCENES])
def test_kernel_basis_matches_jet_gram_schmidt(label, scene, monkeypatch):
    # The QR sees the candidates in the reference's pivot order, and its
    # basis and closed-form derivative are the Gram-Schmidt jets'.
    selected = []
    qr = np.linalg.qr

    def spy(a, *args, **kwargs):
        selected.append(a)
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(paracontact.np.linalg, "qr", spy)
    pd = analyze_scene(scene).pd
    monkeypatch.undo()
    assert all(fault is None for fault in pd.faults), pd.faults
    (a,) = selected
    n, m = pd.n, pd.eta.shape[-1]
    eta_jets = np.concatenate([pd.eta[..., None], np.swapaxes(pd.deta, -1, -2)], axis=-1)
    xi_jets = np.concatenate([pd.xi[..., None], np.swapaxes(pd.dxi, -1, -2)], axis=-1)
    for i in range(len(pd.eta)):
        pivots, jets = reference_kernel_basis(n, eta_jets[i], xi_jets[i])
        cand = np.eye(m) - pd.eta[i][:, None] * pd.xi[i][None, :]
        np.testing.assert_array_equal(a[i].T, cand[pivots])
        z, dz = pd.D_basis[i], pd.dbasis[i]
        assert z.shape == (2 * n, m) and dz.shape == (2 * n, m, m), label
        assert float(np.max(np.abs(z - jets[..., 0]), initial=0.0)) <= TOL, label
        assert float(np.max(np.abs(dz - jets[..., 1:]), initial=0.0)) <= TOL, label
        gram = z @ z.T
        dgram = np.einsum("akl,bk->abl", dz, z) + np.einsum("ak,bkl->abl", z, dz)
        assert float(np.max(np.abs(gram - np.eye(2 * n)), initial=0.0)) <= TOL, label
        assert float(np.max(np.abs(dgram), initial=0.0)) <= TOL, label
