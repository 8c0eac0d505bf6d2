"""Frames, induced connection/form/shape data, structure-equation residuals."""

from dataclasses import fields

import numpy as np
import pytest

from parageom import jet_space
from parageom.errors import (
    ChartLeak,
    DegenerateFrame,
    GenerationError,
    ShapeError,
    failed,
    no_failures,
)
from parageom.hypersurface import (
    CHART_Q_MIN,
    Frame,
    ImmersionScene,
    Polynomial,
    derive_tensors,
    draw_samples,
    eval_immersion,
    fundamental_residuals,
    graph_scene,
    hyperbola_scene,
    induced_data,
    perturbed_scene,
    quadric_scene,
    radial_chart,
    random_graph_scene,
)
from parageom.jets import _jet_space
from parageom.paracomplex import QuadricSpec, random_quadric_spec
from parageom.theorems import analyze_scene


def fixed_n1_spec():
    return QuadricSpec(n=1, P=np.eye(2), R_skew=np.array([[0.0, 1.0], [-1.0, 0.0]]))


def fixed_n1_scene(**kw):
    return quadric_scene(
        fixed_n1_spec(), base_point=np.array([1.0, 0.0, 0.0, 0.0]), **kw
    )


# ----------------------------------------------------------------------
# evaluation


def test_hyperbola_jets_at_origin():
    scene = hyperbola_scene(samples=[[0.0]])
    f, c = eval_immersion(scene, np.array([0.0]))
    space = jet_space(1)
    np.testing.assert_allclose(f[..., 0], [1.0, 0.0], atol=1e-15)
    df = space.deriv(f, 0)
    np.testing.assert_allclose(df[..., 0], [0.0, 1.0], atol=1e-15)
    ddf = space.deriv(df, 0)
    np.testing.assert_allclose(ddf[..., 0], [1.0, 0.0], atol=1e-15)
    np.testing.assert_array_equal(f, c)


def test_quadric_center_of_chart_is_base_point():
    scene = fixed_n1_scene(samples=[[0.0, 0.0, 0.0]])
    f, _ = eval_immersion(scene, np.zeros(3))
    np.testing.assert_array_equal(f[:, 0], scene.params["base_point"])
    x = f[:, 0]
    assert abs(x @ fixed_n1_spec().A @ x - 1.0) <= 1e-14


def test_quadric_stays_on_quadric_at_all_samples():
    for seed in (0, 1):
        spec = random_quadric_spec(1, 40 + seed)
        scene = quadric_scene(spec, seed=seed)
        for u in scene.samples:
            f, _ = eval_immersion(scene, u)
            x = f[:, 0]
            assert abs(x @ spec.A @ x - 1.0) <= 1e-12


def test_chart_leak_outside_domain():
    # Walk along a tangent ray until y'Ay turns negative; one exists because
    # the tangent restriction of A has mixed signature.
    scene = fixed_n1_scene(samples=[[0.0, 0.0, 0.0]])
    basis = scene.params["basis"]
    spec = scene.params["quadric"]
    x0 = scene.params["base_point"]
    for direction in range(3):
        for scale in (2.0, 5.0, 20.0, 100.0):
            u = np.zeros(3)
            u[direction] = scale
            y = x0 + basis.T @ u
            if y @ spec.A @ y <= 0:
                with pytest.raises(ChartLeak):
                    eval_immersion(scene, u)
                return
    pytest.fail("no tangent ray left the chart; tangent signature wrong?")


def test_bad_chart_point_shape():
    scene = hyperbola_scene(samples=[[0.0]])
    with pytest.raises(ShapeError):
        eval_immersion(scene, np.zeros(2))


# ----------------------------------------------------------------------
# frame decomposition


def decompose_value(fr, v):
    """Split a plain ambient vector against the frame at the point: the value
    part of ``decompose_jets`` applied to the constant jet of v."""
    jet = np.zeros((fr.dim, fr.space.ncoeff))
    jet[:, 0] = v
    a, b = fr.decompose_jets(jet)
    return a[:, 0], b[0]


def test_decompose_transversal_and_tangent_units():
    scene = fixed_n1_scene(samples=[[0.1, -0.2, 0.05]])
    u = scene.samples[0]
    f, c = eval_immersion(scene, u)
    space = jet_space(3)
    fr = Frame(space, f, c)
    a, b = decompose_value(fr, c[:, 0])
    np.testing.assert_allclose(a, 0.0, atol=1e-12)
    assert b == pytest.approx(1.0, abs=1e-12)
    e1 = fr.tangent_jets[:, 0, 0]
    a, b = decompose_value(fr, e1)
    np.testing.assert_allclose(a, [1.0, 0.0, 0.0], atol=1e-12)
    assert b == pytest.approx(0.0, abs=1e-12)


def test_decompose_round_trip_random_vectors():
    rng = np.random.default_rng(8)
    scene = fixed_n1_scene(seed=3)
    for u in scene.samples[:5]:
        f, c = eval_immersion(scene, u)
        fr = Frame(jet_space(3), f, c)
        basis = np.column_stack([fr.tangent_jets[:, i, 0] for i in range(3)] + [c[:, 0]])
        for _ in range(5):
            v = rng.normal(size=4)
            a, b = decompose_value(fr, v)
            back = basis @ np.concatenate([a, [b]])
            np.testing.assert_allclose(back, v, rtol=0, atol=1e-12 * np.abs(v).max())


def test_hyperbola_second_derivative_is_transversal():
    scene = hyperbola_scene(samples=[[0.7]])
    f, c = eval_immersion(scene, np.array([0.7]))
    space = jet_space(1)
    ddf = space.deriv(space.deriv(f, 0), 0)[..., 0]
    a, b = decompose_value(Frame(space, f, c), ddf)
    np.testing.assert_allclose(a, 0.0, atol=1e-12)
    assert b == pytest.approx(1.0, abs=1e-12)


def test_frame_rejects_singular_columns():
    space = jet_space(1)
    f = np.zeros((2, space.ncoeff))
    f[0, 0] = 1.0
    f[0, 1] = 1.0  # f = (1 + t, 0): tangent e1 = (1, 0)
    c = np.zeros((2, space.ncoeff))
    c[0, 0] = 2.0  # C parallel to e1
    with pytest.raises(DegenerateFrame):
        Frame(space, f, c)


def frame_with_value(rng, m, b0):
    """A Frame of random order-3 jets of f and C whose frame value is ``b0``
    ``(S, m + 1, m + 1)``."""
    space = jet_space(m)
    f = rng.normal(size=b0.shape[:-1] + (space.ncoeff,))
    c = rng.normal(size=f.shape)
    f[..., 1 : m + 1] = b0[..., :m]
    c[..., 0] = b0[..., m]
    return Frame(space, f, c)


@pytest.mark.parametrize("cond", [None, 1e7], ids=["random", "cond1e7"])
@pytest.mark.parametrize("m", [1, 3, 5, 9])
def test_decompose_jets_matches_per_sample_solve(m, cond):
    # The frame decomposes against its one inverse of B0.  Against a
    # per-sample np.linalg.solve of the same jet system (value first, then
    # each gradient coefficient), both rebuild v = B x coefficient by
    # coefficient within c * cond * eps of its terms, and agree within
    # c * cond * eps of |x|.
    rng = np.random.default_rng(m)
    dim = m + 1
    if cond is None:
        b0 = rng.normal(size=(6, dim, dim))
    else:
        q1, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        q2, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        b0 = ((q1 * np.logspace(0, -np.log10(cond), dim)) @ q2.T)[None]
    fr = frame_with_value(rng, m, b0)
    assert failed(fr.faults).sum() == 0
    if cond is not None:
        assert fr.cond[0] == pytest.approx(cond, rel=1e-6)
    v = rng.normal(size=b0.shape[:1] + (dim, 7, fr.space.ncoeff))
    tang, transv = fr.decompose_jets(v)
    x = np.concatenate([tang, transv[..., None, :, :]], axis=-3)

    b = np.concatenate([fr.tangent_jets, fr.C_jet[..., None, :]], axis=-2)
    want = np.empty_like(x)
    for s in range(len(v)):
        want[s, ..., 0] = np.linalg.solve(b[s, ..., 0], v[s, ..., 0])
        for c in range(1, fr.space.ncoeff):
            want[s, ..., c] = np.linalg.solve(b[s, ..., 0], v[s, ..., c] - b[s, ..., c] @ want[s, ..., 0])

    bound = 2 * dim * fr.cond[:, None] * np.finfo(float).eps
    for y in (x, want):
        # B x at order 1: B0 x_c, plus B_c x_0 for each gradient coefficient c.
        back = np.einsum("spq,sqkc->spkc", b[..., 0], y)
        back[..., 1:] += np.einsum("spqc,sqk->spkc", b[..., 1:], y[..., 0])
        scale = np.abs(v).max(axis=(1, 2))
        scale[:, 1:] += np.abs(b[..., 1:]).max(axis=(1, 2)) * np.abs(y[..., 0]).max(axis=(1, 2))[:, None]
        assert np.all(np.abs(back - v).max(axis=(1, 2)) <= bound * scale)
    assert np.all(np.abs(x - want).max(axis=(1, 2)) <= bound * np.abs(want).max(axis=(1, 2)))


# ----------------------------------------------------------------------
# induced data


def test_hyperbola_induced_closed_form():
    scene = hyperbola_scene(seed=1, num_samples=6)
    for u in scene.samples:
        ind = induced_data(scene, u)
        assert abs(ind.Gamma[0, 0, 0]) <= 1e-12
        assert ind.h[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert ind.S[0, 0] == pytest.approx(-1.0, abs=1e-12)
        assert abs(ind.tau[0]) <= 1e-12
        assert not ind.h_factor.degenerate


def test_quadric_h_matches_ambient_formula():
    # With the position transversal, h(X, Y) = -X'AY in ambient coordinates.
    spec = random_quadric_spec(2, 71)
    scene = quadric_scene(spec, seed=5, num_samples=8)
    for u in scene.samples:
        ind = induced_data(scene, u)
        e = ind.b0[:, :-1]  # the frame value [e_1 .. e_m | C]: (dim, m)
        expected = -e.T @ spec.A @ e
        np.testing.assert_allclose(ind.h, expected, atol=1e-10)


def test_quadric_shape_operator_is_minus_identity():
    spec = random_quadric_spec(1, 13)
    scene = quadric_scene(spec, seed=2, num_samples=10)
    for u in scene.samples:
        ind = induced_data(scene, u)
        np.testing.assert_allclose(ind.S, -np.eye(3), atol=1e-10)
        np.testing.assert_allclose(ind.tau, 0.0, atol=1e-10)


@pytest.mark.parametrize("a", [1, 2, 3, 4, 5, 6, 7, 8, 13, 32])
def test_polynomial_powers_match_repeated_products(a):
    # Square-and-multiply against u^a built one factor at a time, on a stack
    # of points, in a term that mixes the power with another variable.
    space = jet_space(3)
    seeds = space.seeds(np.array([[0.3, -0.7, 1.1], [-0.9, 0.2, 0.5]]))
    power = space.const(1.0)
    for _ in range(a):
        power = space.mul(power, seeds[..., 1, :])
    want = space.mul(space.mul(space.const(2.5), power), seeds[..., 2, :])
    got = Polynomial(3, [((0, a, 1), 2.5)]).eval_jets(space, seeds)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    if a <= 3:
        # Up to the cube the two product chains coincide.
        assert np.array_equal(got, want)


def test_quadric_basis_orthogonality_is_relative_to_a_x0():
    # |A x0| is about 1e100 here: the derived basis is orthogonal to A x0 up
    # to rounding of that size, and validates; a basis tilted towards A x0
    # by 1e-6 still does not.
    spec = QuadricSpec(n=1, P=np.diag([1e200, -1e200]), R_skew=np.zeros((2, 2)))
    chart = radial_chart(spec)
    x0 = chart["base_point"]
    w = spec.A @ x0
    tilted = chart["basis"].copy()
    tilted[0] += 1e-6 * w / np.linalg.norm(w)
    with pytest.raises(ShapeError, match="not orthogonal"):
        radial_chart(spec, base_point=x0, basis=tilted)


def test_perturbed_scene_rejects_n0():
    with pytest.raises(GenerationError, match="require n >= 1"):
        perturbed_scene(random_quadric_spec(0, 7), epsilon=0.1, seed=7, num_samples=3)


def test_graph_h_is_hessian_and_degeneracy_reported():
    # f(u,v,w) = (u,v,w, u^2 - v^2), C = e4: h = diag(2,-2,0), Gamma = 0.
    g = Polynomial(3, [((2, 0, 0), 1.0), ((0, 2, 0), -1.0)])
    scene = graph_scene(g, samples=[[0.1, 0.2, -0.1]])
    ind = induced_data(scene, scene.samples[0])
    np.testing.assert_allclose(ind.h, np.diag([2.0, -2.0, 0.0]), atol=1e-13)
    np.testing.assert_allclose(ind.Gamma, 0.0, atol=1e-13)
    assert ind.h_factor.degenerate


def test_random_quadratic_graph_h_equals_hessian():
    rng = np.random.default_rng(20)
    m = 3
    hess = rng.normal(size=(m, m))
    hess = hess + hess.T + 4.0 * np.eye(m)
    terms = []
    for i in range(m):
        for j in range(i, m):
            alpha = [0] * m
            alpha[i] += 1
            alpha[j] += 1
            coeff = hess[i, j] if i == j else hess[i, j]  # off-diag appears twice
            terms.append((tuple(alpha), 0.5 * coeff * (2.0 if i != j else 1.0)))
    g = Polynomial(m, [(a, c) for a, c in terms])
    scene = graph_scene(g, seed=6, num_samples=5)
    for u in scene.samples:
        ind = induced_data(scene, u)
        np.testing.assert_allclose(ind.h, hess, atol=1e-11)


# Terms of random_graph_scene(n, seed): the seeded draw order is part of the
# scene, since a scene file of the graph family is written from them.
RANDOM_GRAPH_TERMS = {
    (0, 0): (
        [((2,), -0.5), ((3,), -0.16284439692325114)],
        [
            [((0,), 0.0), ((1,), -0.035741361714601405)],
            [((0,), 1.0), ((1,), -0.021322687751940975)],
        ],
    ),
    (1, 7): (
        [
            ((2, 0, 0), 0.5), ((0, 2, 0), -0.5), ((0, 0, 2), 0.5),
            ((3, 0, 0), -0.017253498128314514), ((2, 1, 0), 0.010680693278318842),
            ((2, 0, 1), -0.08922701940793654), ((1, 2, 0), -0.15253642740978185),
            ((1, 1, 1), -0.26627631193647655), ((1, 0, 2), 0.14801803643059708),
            ((0, 3, 0), 0.012256773059843894), ((0, 2, 1), -0.18037779181730348),
            ((0, 1, 2), 0.0720274103664041), ((0, 0, 3), 0.008969156255903287),
        ],
        [
            [((0, 0, 0), 0.0), ((1, 0, 0), -0.0709585528485238),
             ((0, 1, 0), -0.14820230985978258), ((0, 0, 1), -0.05145915378033794)],
            [((0, 0, 0), 0.0), ((1, 0, 0), -0.09857686523302728),
             ((0, 1, 0), -0.17029187878604699), ((0, 0, 1), -0.15408263705511113)],
            [((0, 0, 0), 0.0), ((1, 0, 0), 0.19425820942838065),
             ((0, 1, 0), 0.174640920702746), ((0, 0, 1), -0.04083015405684707)],
            [((0, 0, 0), 1.0), ((1, 0, 0), 0.1560923283403866),
             ((0, 1, 0), 0.1375143728544455), ((0, 0, 1), 0.06401423711371738)],
        ],
    ),
}


@pytest.mark.parametrize("n, seed", list(RANDOM_GRAPH_TERMS))
def test_random_graph_scene_terms_are_pinned(n, seed):
    graph, transversal = RANDOM_GRAPH_TERMS[n, seed]
    scene = random_graph_scene(n, seed, num_samples=1)
    assert scene.params["graph"].terms == graph
    assert [p.terms for p in scene.params["transversal"]] == transversal


# ----------------------------------------------------------------------
# jet-carried derivatives vs finite differences


def central_diff(fn, u, l, h=1e-5):
    up, um = u.copy(), u.copy()
    up[l] += h
    um[l] -= h
    return (fn(up) - fn(um)) / (2.0 * h)


def test_derivative_fields_match_finite_differences():
    scene = fixed_n1_scene(seed=9, num_samples=2)
    u = scene.samples[0]
    ind = induced_data(scene, u)
    for l in range(3):
        fd_h = central_diff(lambda v: induced_data(scene, v).h, u, l)
        np.testing.assert_allclose(ind.dh[l], fd_h, rtol=0, atol=1e-6)
        fd_g = central_diff(lambda v: induced_data(scene, v).Gamma, u, l)
        np.testing.assert_allclose(ind.dGamma[l], fd_g, rtol=0, atol=1e-6)
        fd_s = central_diff(lambda v: induced_data(scene, v).S, u, l)
        np.testing.assert_allclose(ind.dS[l], fd_s, rtol=0, atol=1e-6)
        fd_t = central_diff(lambda v: induced_data(scene, v).tau, u, l)
        np.testing.assert_allclose(ind.dtau_raw[l], fd_t, rtol=0, atol=1e-6)


# ----------------------------------------------------------------------
# derived tensors


def test_hyperbola_derived_tensors_vanish():
    scene = hyperbola_scene(samples=[[0.4]])
    der = derive_tensors(induced_data(scene, scene.samples[0]))
    assert np.max(np.abs(der.R_curv)) == 0.0
    assert np.max(np.abs(der.nabla_h)) <= 1e-12
    assert np.max(np.abs(der.Q)) <= 1e-12
    assert np.max(np.abs(der.dtau)) == 0.0


def test_quadric_cubic_form_vanishes():
    spec = random_quadric_spec(1, 77)
    scene = quadric_scene(spec, seed=7, num_samples=10)
    for u in scene.samples:
        der = derive_tensors(induced_data(scene, u))
        assert np.max(np.abs(der.Q)) <= 1e-8


def test_cubic_form_fully_symmetric_on_random_graph():
    scene = random_graph_scene(1, seed=31, num_samples=10)
    for u in scene.samples:
        q = derive_tensors(induced_data(scene, u)).Q
        for perm in [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
            assert np.max(np.abs(q - q.transpose(perm))) <= 1e-9


def test_curvature_antisymmetry():
    scene = random_graph_scene(1, seed=32, num_samples=5)
    for u in scene.samples:
        r = derive_tensors(induced_data(scene, u)).R_curv
        assert np.max(np.abs(r + r.transpose(0, 2, 1, 3))) <= 1e-12


# ----------------------------------------------------------------------
# fundamental equations


def scene_zoo():
    yield hyperbola_scene(seed=1, num_samples=5)
    yield quadric_scene(random_quadric_spec(1, 101), seed=11, num_samples=5)
    yield quadric_scene(random_quadric_spec(2, 102), seed=12, num_samples=5)
    yield perturbed_scene(random_quadric_spec(1, 103), epsilon=0.1, seed=13, num_samples=5)
    yield random_graph_scene(1, seed=14, num_samples=5)
    yield random_graph_scene(2, seed=15, num_samples=5)


def test_fundamental_residuals_all_families():
    for scene in scene_zoo():
        for u in scene.samples:
            for r in fundamental_residuals(scene, u).values():
                assert np.max(np.abs(r)) <= 1e-8


def test_hyperbola_fundamental_residuals_exactly_zero():
    scene = hyperbola_scene(samples=[[0.3]])
    residuals = fundamental_residuals(scene, scene.samples[0])
    assert list(residuals) == ["gauss", "codazzi_h", "codazzi_s", "ricci"]
    assert all(np.max(np.abs(r)) == 0.0 for r in residuals.values())


# ----------------------------------------------------------------------
# sampling


def test_draw_samples_is_deterministic():
    scene_a = quadric_scene(random_quadric_spec(1, 55), seed=21)
    scene_b = quadric_scene(random_quadric_spec(1, 55), seed=21)
    assert len(scene_a.samples) == 20
    for a, b in zip(scene_a.samples, scene_b.samples):
        np.testing.assert_array_equal(a, b)


def test_draw_samples_respects_chart():
    from parageom.hypersurface import _chart_quality

    scene = quadric_scene(random_quadric_spec(2, 56), seed=22)
    for u in scene.samples:
        assert _chart_quality(scene, u) > 0.1


def test_scene_samples_are_one_array_of_rows():
    # Drawn or given, a scene's samples are one (S, m) float array, drawn
    # rows in draw order; a scene built without samples has no rows.
    scene = quadric_scene(random_quadric_spec(1, 58), seed=24, num_samples=4)
    assert isinstance(scene.samples, np.ndarray) and scene.samples.shape == (4, 3)
    drawn = draw_samples(scene, 24, 4)
    assert isinstance(drawn, np.ndarray) and drawn.dtype == float
    np.testing.assert_array_equal(drawn, scene.samples)
    np.testing.assert_array_equal(draw_samples(scene, 24, 2), drawn[:2])
    given = quadric_scene(random_quadric_spec(1, 58), seed=24, samples=[[0, 0, 0], [0.1, 0, 0]])
    assert given.samples.dtype == float and given.samples.shape == (2, 3)
    assert ImmersionScene("hyperbola", 0, {}).samples.shape == (0, 1)


def test_failed_marks_each_recorded_failure():
    for shape in [(), (3,), (2, 3)]:
        faults = no_failures(shape)
        assert failed(faults).shape == shape and not failed(faults).any()
        faults.reshape(-1)[-1] = ChartLeak("x")
        mask = failed(faults)
        assert mask.dtype == bool and mask.sum() == 1 and mask.reshape(-1)[-1]


def test_analysis_tests_each_point_against_the_chart_once(monkeypatch):
    # induced_data is the one chart test of an analysis; eval_immersion only
    # guards the value of its own q jet.
    from parageom import hypersurface

    scene = quadric_scene(random_quadric_spec(1, 57), seed=23, num_samples=5)
    calls = []
    real = hypersurface._chart_quality

    def counted(scene, u):
        calls.append(np.shape(u))
        return real(scene, u)

    monkeypatch.setattr(hypersurface, "_chart_quality", counted)
    analyze_scene(scene)
    assert calls == [(5, 3)]


def reference_screen(scene, seed, num_samples, sample_box):
    """The sample screen built on the full order-3 ``Frame``: the points it
    keeps, and its rejections by kind."""
    from parageom.hypersurface import _chart_quality

    rng = np.random.default_rng([seed, 2])
    m = scene.chart_dim
    samples, rejected = [], {"chart": 0, "frame": 0}
    for _ in range(50 * num_samples + 100):
        if len(samples) == num_samples:
            break
        u = rng.uniform(-sample_box, sample_box, size=m)
        if _chart_quality(scene, u) <= CHART_Q_MIN:
            rejected["chart"] += 1
            continue
        try:
            f, c = eval_immersion(scene, u)
            Frame(jet_space(m), f, c)
        except ChartLeak:
            rejected["chart"] += 1
            continue
        except DegenerateFrame:
            rejected["frame"] += 1
            continue
        samples.append(u)
    return samples, rejected


def ill_conditioned_scene():
    # A large perturbation makes most frames too ill-conditioned, and the
    # wide box reaches where the radial chart degrades.
    return perturbed_scene(
        random_quadric_spec(1, 3), epsilon=1e4, seed=3, num_samples=2, sample_box=1.0
    )


def test_sample_screen_keeps_the_full_frame_screen_points():
    scene = ill_conditioned_scene()
    want, rejected = reference_screen(scene, 3, 60, 1.0)
    assert rejected["chart"] > 0 and rejected["frame"] > 0, rejected
    got = draw_samples(scene, 3, 60, 1.0)
    assert len(got) == len(want) == 60
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_draw_samples_builds_no_frame(monkeypatch):
    scene = ill_conditioned_scene()
    built = []
    init = Frame.__init__

    def counting_init(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(Frame, "__init__", counting_init)
    assert len(draw_samples(scene, 3, 20, 1.0)) == 20
    assert not built


def test_analysis_builds_one_jet_space_per_order_it_uses():
    # The order-3 space of f and C and the order-1 space downstream of the
    # frame; the degree <= 2 tangent jets need no space of their own.
    _jet_space.cache_clear()
    scene = quadric_scene(random_quadric_spec(1, 58), seed=58, num_samples=3)
    assert all(fault is None for fault in analyze_scene(scene).pd.faults)
    assert _jet_space.cache_info().currsize == 2
    for order in (1, 3):
        jet_space(scene.chart_dim, order)
    assert _jet_space.cache_info().currsize == 2


def test_frame_and_induced_data_keep_only_order_1_jets(monkeypatch):
    # Once induced_data returns, no array kept on its Frame or on the
    # InducedData is wider than an order-1 jet (m + 1 coefficients), and the
    # whole analysis decomposes against the frame once.
    frames, calls = [], []
    init, decompose = Frame.__init__, Frame.decompose_jets

    def recording_init(self, *args):
        init(self, *args)
        frames.append(self)

    def counting_decompose(self, v):
        calls.append(v.shape)
        return decompose(self, v)

    monkeypatch.setattr(Frame, "__init__", recording_init)
    monkeypatch.setattr(Frame, "decompose_jets", counting_decompose)
    for n in (0, 1, 4):
        scene = quadric_scene(random_quadric_spec(n, 60 + n), seed=60 + n, num_samples=3)
        m = scene.chart_dim
        frames.clear()
        calls.clear()
        ind = analyze_scene(scene).ind
        (frame,) = frames
        assert len(calls) == 1, calls
        kept = {f"Frame.{k}": v for k, v in vars(frame).items()}
        kept.update({f"InducedData.{f.name}": getattr(ind, f.name) for f in fields(ind)})
        assert "Frame.tangent2" not in kept and "InducedData.frame" not in kept
        for name, value in kept.items():
            if isinstance(value, np.ndarray) and value.dtype != object and value.ndim > 1:
                assert value.shape[-1] <= m + 1, (name, value.shape)


def test_a_failed_frame_carries_the_flat_frame():
    rng = np.random.default_rng(5)
    b0 = rng.normal(size=(3, 4, 4))
    b0[1, :, 0] = b0[1, :, 1]
    fr = frame_with_value(rng, 3, b0)
    assert failed(fr.faults).tolist() == [False, True, False]
    flat = jet_space(3, 1).const(np.eye(4))
    np.testing.assert_array_equal(fr.b0[1], np.eye(4))
    np.testing.assert_array_equal(fr.tangent_jets[1], flat[:, :3])
    np.testing.assert_array_equal(fr.C_jet[1], flat[:, 3])
    assert not fr.d_tangent[1].any() and not fr.dC_jets[1].any()
    assert fr.d_tangent[0].any() and fr.dC_jets[2].any()


def test_epsilon_zero_perturbation_matches_plain_quadric():
    spec = random_quadric_spec(1, 57)
    plain = quadric_scene(spec, seed=23, num_samples=5)
    pert = perturbed_scene(
        spec,
        epsilon=0.0,
        seed=23,
        num_samples=5,
        base_point=plain.params["base_point"],
        basis=plain.params["basis"],
    )
    for u in plain.samples:
        fa, ca = eval_immersion(plain, u)
        fb, cb = eval_immersion(pert, u)
        np.testing.assert_array_equal(fa, fb)
        np.testing.assert_allclose(ca, cb, atol=1e-16)
