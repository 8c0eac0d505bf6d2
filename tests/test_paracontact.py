"""Induced (phi, xi, eta) structure and its compatibility residuals."""

from dataclasses import replace

import numpy as np
import pytest

from parageom import jet_space
from parageom.errors import DegenerateMetric
from parageom.hypersurface import (
    Frame,
    HFactor,
    eval_immersion,
    hyperbola_scene,
    induced_data,
    perturbed_scene,
    quadric_scene,
    random_graph_scene,
)
from parageom.paracomplex import apply_J, random_quadric_spec
from parageom.paracontact import (
    axiom_residuals,
    contact_residual,
    induced_structure,
    levi_civita,
    metric_residual,
    normality_residuals,
    sasakian_residual,
)
from parageom.theorems import run_suite


def point_data(scene, u):
    ind = induced_data(scene, u)
    return ind, induced_structure(ind)


def max_abs(residual):
    """max |residual| of a raw residual (an array or a float)."""
    return float(np.abs(residual).max())


def quadric_zoo():
    for n, seed in [(0, 61), (1, 62), (2, 63)]:
        spec = random_quadric_spec(n, seed)
        yield quadric_scene(spec, seed=seed, num_samples=6), spec


# ----------------------------------------------------------------------
# construction


def test_hyperbola_structure_closed_form():
    scene = hyperbola_scene(seed=2, num_samples=5)
    for u in scene.samples:
        ind, pd = point_data(scene, u)
        assert pd.xi[0] == pytest.approx(1.0, abs=1e-12)
        assert pd.eta[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(pd.phi[0, 0]) <= 1e-12
        assert pd.tangency <= 1e-12
        assert pd.D_basis.shape == (0, 1)


def test_axioms_hold_on_all_tangent_scenes():
    for scene, _ in quadric_zoo():
        for u in scene.samples:
            _, pd = point_data(scene, u)
            assert pd.tangency <= 1e-10
            ax = axiom_residuals(pd)
            assert max_abs(ax["phi_square"]) <= 1e-10
            assert max_abs(ax["eta_xi"]) <= 1e-10
            assert max_abs(ax["phi_xi"]) <= 1e-10
            assert max_abs(ax["eta_phi"]) <= 1e-10
            assert max_abs(ax["eigen_split"]) <= 1e-10
            assert ax["eigen_counts_ok"]


def test_eta_is_h_contraction_with_xi_on_metric_scenes():
    for scene, _ in quadric_zoo():
        for u in scene.samples:
            ind, pd = point_data(scene, u)
            np.testing.assert_allclose(pd.eta, ind.h @ pd.xi, atol=1e-9)


def test_kernel_basis_spans_ker_eta():
    for scene, _ in quadric_zoo():
        if scene.n == 0:
            continue
        for u in scene.samples[:3]:
            _, pd = point_data(scene, u)
            # eta vanishes on every basis field, fields are orthonormal.
            np.testing.assert_allclose(pd.D_basis @ pd.eta, 0.0, atol=1e-10)
            gram = pd.D_basis @ pd.D_basis.T
            np.testing.assert_allclose(gram, np.eye(2 * scene.n), atol=1e-10)


def test_kernel_basis_derivatives_match_finite_differences():
    spec = random_quadric_spec(1, 64)
    scene = quadric_scene(spec, seed=64, num_samples=2)
    u = scene.samples[0]
    _, pd = point_data(scene, u)
    h = 1e-6
    for l in range(3):
        up, um = u.copy(), u.copy()
        up[l] += h
        um[l] -= h
        zp = point_data(scene, up)[1].D_basis
        zm = point_data(scene, um)[1].D_basis
        fd = (zp - zm) / (2.0 * h)
        np.testing.assert_allclose(pd.dbasis[:, :, l], fd, atol=1e-5)


# Every jet-carried derivative array against central differences of its value
# array, an oracle that shares nothing with the jet propagation.  Each getter
# returns (value, derivative with the chart direction l first).
DERIVATIVE_ARRAYS = {
    "dGamma": lambda ind, pd: (ind.Gamma, ind.dGamma),
    "dh": lambda ind, pd: (ind.h, ind.dh),
    "dS": lambda ind, pd: (ind.S, ind.dS),
    "dtau_raw": lambda ind, pd: (ind.tau, ind.dtau_raw),
    "dxi": lambda ind, pd: (pd.xi, pd.dxi),
    "deta": lambda ind, pd: (pd.eta, pd.deta),
    "dphi": lambda ind, pd: (pd.phi, pd.dphi),
    "dbasis": lambda ind, pd: (pd.D_basis, np.moveaxis(pd.dbasis, -1, 0)),
}

DERIVATIVE_SCENES = {
    "hyperbola": lambda: hyperbola_scene(seed=21, num_samples=3),
    "quadric_n1": lambda: quadric_scene(random_quadric_spec(1, 22), seed=22, num_samples=3),
    "quadric_n2": lambda: quadric_scene(random_quadric_spec(2, 23), seed=23, num_samples=3),
    "perturbed_n1": lambda: perturbed_scene(
        random_quadric_spec(1, 24), epsilon=0.1, seed=24, num_samples=3
    ),
    "graph_n1": lambda: random_graph_scene(1, seed=25, num_samples=3),
}


@pytest.mark.parametrize("name", sorted(DERIVATIVE_SCENES))
def test_derivative_arrays_match_central_differences(name):
    scene = DERIVATIVE_SCENES[name]()
    step = 1e-5
    for u in scene.samples:
        at_u = point_data(scene, u)
        for l in range(scene.chart_dim):
            up, um = u.copy(), u.copy()
            up[l] += step
            um[l] -= step
            plus, minus = point_data(scene, up), point_data(scene, um)
            for field, get in DERIVATIVE_ARRAYS.items():
                value, deriv = get(*at_u)
                assert deriv.shape == (scene.chart_dim,) + value.shape, field
                fd = (get(*plus)[0] - get(*minus)[0]) / (2.0 * step)
                scale = max(1.0, float(np.max(np.abs(fd), initial=0.0)))
                np.testing.assert_allclose(
                    deriv[l], fd, rtol=0, atol=1e-8 * scale, err_msg=f"{field} along u^{l}"
                )


# ----------------------------------------------------------------------
# J-tangency


def j_tangency(f, c):
    """|transversal coefficient of J C| at the point; 0 iff C is J-tangent."""
    frame = Frame(jet_space(f.shape[0] - 1), f, c)
    _, b = frame.decompose_jets(apply_J(frame.C_jet))
    return abs(b[0])


def test_quadric_position_field_is_j_tangent():
    for scene, _ in quadric_zoo():
        for u in scene.samples:
            f, c = eval_immersion(scene, u)
            assert j_tangency(f, c) <= 1e-12


def test_circle_position_field_is_not_j_tangent():
    # Unit circle x'x = 1 (sphere-style, J-symmetric): residual is 2|ab|.
    space = jet_space(1)
    t = space.seeds(np.array([0.6]))[0]
    a0 = 0.6
    f = np.stack([t, space.sqrt(space.const(1.0) - space.mul(t, t))])
    b0 = float(np.sqrt(1.0 - a0 * a0))
    res = j_tangency(f, f.copy())
    assert res == pytest.approx(2.0 * a0 * b0, abs=1e-12)


def test_perturbed_transversal_stays_j_tangent():
    spec = random_quadric_spec(1, 65)
    scene = perturbed_scene(spec, epsilon=0.1, seed=65, num_samples=6)
    for u in scene.samples:
        f, c = eval_immersion(scene, u)
        assert j_tangency(f, c) <= 1e-10


# ----------------------------------------------------------------------
# metric compatibility


def test_quadric_structure_is_metric_with_right_signature():
    for scene, _ in quadric_zoo():
        for u in scene.samples:
            ind, pd = point_data(scene, u)
            assert max_abs(metric_residual(pd, ind.h)) <= 1e-8
            assert ind.h_factor.signature == (scene.n + 1, scene.n)


def test_hyperbola_metric_residual_zero():
    scene = hyperbola_scene(samples=[[0.5]])
    ind, pd = point_data(scene, scene.samples[0])
    assert max_abs(metric_residual(pd, ind.h)) <= 1e-14
    assert ind.h_factor.signature == (1, 0)


def test_perturbed_metric_residual_grows_with_epsilon():
    # Calibration for the negative acceptance path: at eps = 0.1 the metric
    # defect sits well above 1e-3 on generic samples of seeded scenes.
    spec = random_quadric_spec(1, 66)
    for seed in (1, 2, 3):
        scene = perturbed_scene(spec, epsilon=0.1, seed=seed, num_samples=8)
        hits = 0
        for u in scene.samples:
            ind, pd = point_data(scene, u)
            if max_abs(metric_residual(pd, ind.h)) > 1e-3:
                hits += 1
        assert hits >= int(0.9 * len(scene.samples))


def test_signature_threshold_handles_zero_matrix():
    assert HFactor(np.zeros((3, 3))).signature == (0, 0)
    assert HFactor(np.diag([2.0, -1.0, 1e-15])).signature == (1, 1)


def test_d_eta_is_antisymmetrized_eta_gradient():
    # Regression guard: d_eta must be exactly the half-difference of the
    # stored eta derivatives, with no separate code path.
    scene = quadric_scene(random_quadric_spec(1, 75), seed=75, num_samples=3)
    for u in scene.samples:
        _, pd = point_data(scene, u)
        np.testing.assert_array_equal(pd.d_eta, 0.5 * (pd.deta - pd.deta.T))


# ----------------------------------------------------------------------
# normality


def test_quadric_normality_both_residuals_small():
    for scene, _ in quadric_zoo():
        for u in scene.samples:
            ind, pd = point_data(scene, u)
            nij, op = normality_residuals(pd, ind)
            assert max_abs(nij) <= 1e-7
            assert max_abs(op) <= 1e-7


def test_hyperbola_normality_zero():
    scene = hyperbola_scene(samples=[[0.2]])
    ind, pd = point_data(scene, scene.samples[0])
    nij, op = normality_residuals(pd, ind)
    assert max_abs(nij) <= 1e-14
    assert op == 0.0


def test_perturbed_operational_residual_large():
    spec = random_quadric_spec(1, 67)
    scene = perturbed_scene(spec, epsilon=0.1, seed=67, num_samples=8)
    hits = 0
    for u in scene.samples:
        ind, pd = point_data(scene, u)
        _, op = normality_residuals(pd, ind)
        if max_abs(op) > 1e-3:
            hits += 1
    assert hits >= int(0.75 * len(scene.samples))


# ----------------------------------------------------------------------
# contact condition


def test_quadric_contact_alpha_minus_one():
    for scene, _ in quadric_zoo():
        for u in scene.samples:
            ind, pd = point_data(scene, u)
            assert max_abs(contact_residual(pd, ind.h, -1.0)) <= 1e-8


def test_quadric_contact_wrong_alpha_fails():
    spec = random_quadric_spec(1, 68)
    scene = quadric_scene(spec, seed=68, num_samples=8)
    hits = 0
    for u in scene.samples:
        ind, pd = point_data(scene, u)
        if max_abs(contact_residual(pd, ind.h, 1.0)) > 1e-2:
            hits += 1
    assert hits >= int(0.9 * len(scene.samples))


def test_hyperbola_contact_any_alpha():
    scene = hyperbola_scene(samples=[[0.3]])
    ind, pd = point_data(scene, scene.samples[0])
    for alpha in (-1.0, 0.0, 1.0, 3.7):
        assert max_abs(contact_residual(pd, ind.h, alpha)) <= 1e-14


def test_d_eta_matches_ambient_formula_on_quadric():
    # Independent route: with C = x on the quadric, d eta(e_i, e_j) equals
    # e_i' (A J) e_j because A J is antisymmetric when J A = -A J.
    spec = random_quadric_spec(1, 69)
    scene = quadric_scene(spec, seed=69, num_samples=6)
    jmat = np.zeros((4, 4))
    jmat[:2, 2:] = np.eye(2)
    jmat[2:, :2] = np.eye(2)
    for u in scene.samples:
        ind, pd = point_data(scene, u)
        e = ind.b0[:, :-1]  # the frame value [e_1 .. e_m | C]: (dim, m)
        expected = e.T @ spec.A @ jmat @ e
        np.testing.assert_allclose(pd.d_eta, expected, atol=1e-10)


# ----------------------------------------------------------------------
# Levi-Civita connection and Sasakian condition


def test_levi_civita_constant_metric_is_flat():
    h = np.diag([1.0, -1.0, 2.0])
    dh = np.zeros((3, 3, 3))
    assert np.max(np.abs(levi_civita(HFactor(h), dh))) == 0.0


def test_levi_civita_symmetry_and_compatibility():
    for scene in [
        quadric_scene(random_quadric_spec(1, 70), seed=70, num_samples=5),
        random_graph_scene(1, seed=71, num_samples=5),
    ]:
        for u in scene.samples:
            ind = induced_data(scene, u)
            if ind.h_factor.degenerate:
                continue
            g = levi_civita(ind.h_factor, ind.dh)
            np.testing.assert_array_equal(g, g.transpose(0, 2, 1))
            # h is parallel for its own Levi-Civita connection.
            nabla_h = (
                ind.dh
                - np.einsum("pij,pk->ijk", g, ind.h)
                - np.einsum("pik,jp->ijk", g, ind.h)
            )
            assert np.max(np.abs(nabla_h)) <= 1e-9


def test_levi_civita_rejects_singular_h():
    with pytest.raises(DegenerateMetric):
        levi_civita(HFactor(np.diag([1.0, 0.0, 1.0])), np.zeros((3, 3, 3)))


def test_quadric_sasakian_alpha_minus_one():
    for scene, _ in quadric_zoo():
        for u in scene.samples:
            ind, pd = point_data(scene, u)
            assert max_abs(sasakian_residual(pd, ind, -1.0)) <= 1e-6


def test_quadric_sasakian_alpha_zero_fails():
    spec = random_quadric_spec(1, 72)
    scene = quadric_scene(spec, seed=72, num_samples=8)
    hits = 0
    for u in scene.samples:
        ind, pd = point_data(scene, u)
        if max_abs(sasakian_residual(pd, ind, 0.0)) > 1e-2:
            hits += 1
    assert hits >= int(0.9 * len(scene.samples))


def test_hyperbola_sasakian_alpha_minus_one_zero():
    scene = hyperbola_scene(samples=[[0.4]])
    ind, pd = point_data(scene, scene.samples[0])
    assert max_abs(sasakian_residual(pd, ind, -1.0)) <= 1e-13


def test_normal_and_contact_imply_sasakian():
    # Cross-check of the characterization: wherever both normality and the
    # alpha-contact condition hold at tolerance, the alpha-Sasakian condition
    # follows within a constant factor.
    tol = 1e-9
    for scene, _ in quadric_zoo():
        for u in scene.samples:
            ind, pd = point_data(scene, u)
            nij, op = normality_residuals(pd, ind)
            if max(max_abs(nij), max_abs(op)) <= tol and max_abs(
                contact_residual(pd, ind.h, -1.0)
            ) <= tol:
                assert max_abs(sasakian_residual(pd, ind, -1.0)) <= 10.0 * tol


# ----------------------------------------------------------------------
# diagnostics and reports


def test_dperp_direction_is_reeb_direction_on_metric_scenes():
    spec = random_quadric_spec(1, 73)
    scene = quadric_scene(spec, seed=73, num_samples=5)
    for u in scene.samples:
        ind, pd = point_data(scene, u)
        # {X : h(X, Z) = 0 for all Z in ker(eta)} is spanned by h^{-1} eta.
        v = np.linalg.solve(ind.h, pd.eta)
        v /= np.linalg.norm(v)
        xi_unit = pd.xi / np.linalg.norm(pd.xi)
        assert min(np.linalg.norm(v - xi_unit), np.linalg.norm(v + xi_unit)) <= 1e-8


def test_structure_report_on_quadric():
    spec = random_quadric_spec(1, 74)
    scene = quadric_scene(spec, seed=74, num_samples=3)
    ind, pd = point_data(scene, scene.samples[0])
    assert max_abs(metric_residual(pd, ind.h)) <= 1e-8
    assert ind.h_factor.signature == (2, 1)
    assert pd.tangency <= 1e-10
    assert max_abs(contact_residual(pd, ind.h, -1.0)) <= 1e-8
    assert max_abs(contact_residual(pd, ind.h, 1.0)) > 1e-3
    assert max_abs(sasakian_residual(pd, ind, -1.0)) <= 1e-6
    assert not ind.h_factor.degenerate


def test_structure_report_degenerate_h_flag():
    from parageom.hypersurface import Polynomial, graph_scene

    g = Polynomial(1, [((2,), 0.0)])  # flat line: h = 0
    scene = graph_scene(g, samples=[[0.1]])
    ind, pd = point_data(scene, scene.samples[0])
    assert ind.h_factor.degenerate
    with pytest.raises(DegenerateMetric):
        levi_civita(ind.h_factor, ind.dh)
    with pytest.raises(DegenerateMetric):
        sasakian_residual(pd, ind, -1.0)
    # The battery that needs h^{-1} skips the sample instead of failing it.
    report = run_suite(scene, "THM_EQUIV", diagnostic=True)
    assert report.status == "skipped"
    assert report.skip_reasons[0].startswith("degenerate:")


def conditioned_h(m):
    """A symmetric h of size m with eigenvalues of alternating sign from 1
    down to 10^-2.5 in magnitude, in a random orthonormal basis."""
    q, _ = np.linalg.qr(np.random.default_rng(m).standard_normal((m, m)))
    return (q * (np.logspace(0, -2.5, m) * (-1.0) ** np.arange(m))) @ q.T


@pytest.mark.parametrize(
    "n, h, degenerate",
    [
        (1, np.diag([1.0, 1e-6, -1e-6]), True),
        (1, np.diag([1.0, 1e-3, -1e-3]), False),
        (1, np.diag([1.0, np.nan, -1.0]), True),
        (12, conditioned_h(25), False),
        (16, conditioned_h(33), False),
    ],
    ids=["1e-06-True", "0.001-False", "nan-True", "m25-False", "m33-False"],
)
def test_one_degeneracy_verdict_for_inverse_and_abs_norm(n, h, degenerate):
    # h = diag(1, s, -s) has eigenvalue ratio s: below the 1e-5 floor at
    # s = 1e-6, above it at s = 1e-3.  A non-finite h is degenerate.  A
    # well-conditioned h at m = 25 and 33 is not, though its determinant
    # relative to max|h|^m is below 1e-10, so a determinant test that does
    # not scale with m would call it degenerate.  The Levi-Civita inverse and
    # the |h| norm of the operational normality defect must agree with
    # HFactor.
    m = h.shape[-1]
    if m > 3:
        assert np.linalg.cond(h) <= 1e3
        assert abs(np.linalg.det(h / np.abs(h).max())) < 1e-10
    scene = quadric_scene(random_quadric_spec(n, 76), seed=76, num_samples=1)
    ind, pd = point_data(scene, scene.samples[0])

    def raises(fn, *args):
        try:
            fn(*args)
        except DegenerateMetric:
            return True
        return False

    assert HFactor(h).degenerate == degenerate
    assert raises(levi_civita, HFactor(h), np.zeros((m, m, m))) == degenerate
    assert raises(normality_residuals, pd, replace(ind, h=h)) == degenerate
