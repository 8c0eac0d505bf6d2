"""Theorem batteries: gates, residuals, vacuous handling, converse check."""

import json
from dataclasses import replace

import numpy as np
import pytest

from parageom import theorems
from parageom.cli import EXIT_DEGENERATE, run_verification
from parageom.hypersurface import (
    ImmersionScene,
    Polynomial,
    fundamental_residuals,
    graph_scene,
    hyperbola_scene,
    perturbed_scene,
    quadric_scene,
    random_graph_scene,
)
from parageom.paracomplex import QuadricSpec, random_quadric_spec
from parageom.theorems import (
    CONVERSE_TOLERANCES,
    SCENE_SUITES,
    analyze_point,
    analyze_scene,
    run_suite,
    verify_quadric_converse,
)


def fixed_n1_spec():
    return QuadricSpec(n=1, P=np.eye(2), R_skew=np.array([[0.0, 1.0], [-1.0, 0.0]]))


def row(report, idx):
    """One sample's identity values in a suite report's columns."""
    return {k: v[idx] for k, v in report.identities.items()}


def identities(scene, theorem_id, diagnostic=False):
    """Per-sample identity dicts of one battery; every sample must have been
    evaluated (neither gated nor degenerate)."""
    report = run_suite(scene, theorem_id, diagnostic=diagnostic)
    for idx, reason in enumerate(report.skip_reasons):
        assert reason is None, (theorem_id, idx, reason)
    return [row(report, idx) for idx in range(len(report.skip_reasons))]


# ----------------------------------------------------------------------
# frame-field identity battery


def test_tw_wzory_small_on_tangent_scenes():
    scenes = [
        hyperbola_scene(seed=80, num_samples=5),
        quadric_scene(random_quadric_spec(1, 81), seed=81, num_samples=5),
        quadric_scene(random_quadric_spec(2, 82), seed=82, num_samples=5),
        perturbed_scene(random_quadric_spec(1, 83), epsilon=0.1, seed=83, num_samples=5),
    ]
    for scene in scenes:
        for ids in identities(scene, "TW_WZORY"):
            assert max(ids.values()) <= 1e-8, (scene.family, ids)


def test_tw_wzory_identity5_both_sides_small_on_quadric():
    # tau = 0 and nabla xi stays in ker(eta): both sides of
    # eta(nabla_X xi) = tau(X) vanish individually.
    scene = quadric_scene(fixed_n1_spec(), seed=84, num_samples=4,
                          base_point=np.array([1.0, 0.0, 0.0, 0.0]))
    for u in scene.samples:
        pa = analyze_point(scene, u)
        nabla_xi = pa.pd.dxi.T + np.einsum("kim,m->ki", pa.ind.Gamma, pa.pd.xi)
        lhs = pa.pd.eta @ nabla_xi
        assert np.max(np.abs(lhs)) <= 1e-9
        assert np.max(np.abs(pa.ind.tau)) <= 1e-9


def test_tw_wzory_hyperbola_eta_shape_reads_minus_one():
    scene = hyperbola_scene(samples=[[0.25]])
    pa = analyze_point(scene, scene.samples[0])
    # eta(S X) and -h(X, xi) both equal -1 here.
    assert (pa.pd.eta @ pa.ind.S)[0] == pytest.approx(-1.0, abs=1e-12)
    assert (-pa.ind.h @ pa.pd.xi)[0] == pytest.approx(-1.0, abs=1e-12)


def test_tw_wzory_gated_on_non_tangent_scene():
    scene = random_graph_scene(1, seed=85, num_samples=3)
    gated = run_suite(scene, "TW_WZORY").skip_reasons[0]
    assert gated is not None
    assert gated.startswith("gate: transversal not J-tangent")
    ids = identities(scene, "TW_WZORY", diagnostic=True)[0]
    assert set(ids) == {
        "eta_nabla",
        "phi_nabla",
        "eta_bracket",
        "phi_bracket",
        "eta_nabla_xi",
        "eta_shape",
    }


# ----------------------------------------------------------------------
# kernel-field identity battery


def test_cor_wzory_small_on_quadrics():
    for n, seed in [(1, 86), (2, 87)]:
        scene = quadric_scene(random_quadric_spec(n, seed), seed=seed, num_samples=5)
        for ids in identities(scene, "COR_WZORY"):
            assert max(ids.values()) <= 1e-7


def test_cor_wzory_bracket_identity_both_sides():
    # Metric compatibility forces h(., phi .) to be antisymmetric on ker(eta)
    # (h(phi Z, W) = -h(Z, phi W) via phi^2 W = W), so brackets of kernel
    # fields generically leave the kernel: both sides of
    # eta([Z, W]) = h(Z, phi W) - h(W, phi Z) are O(1) yet agree.
    scene = quadric_scene(random_quadric_spec(1, 88), seed=88, num_samples=4)
    saw_nonzero = False
    for u in scene.samples:
        pa = analyze_point(scene, u)
        z = pa.pd.D_basis
        hphi = pa.ind.h @ pa.pd.phi
        sym = z @ (hphi + hphi.T) @ z.T
        assert np.max(np.abs(sym)) <= 1e-8
        lhs = np.zeros((2, 2))
        for a in range(2):
            for b in range(2):
                br = pa.pd.dbasis[b] @ z[a] - pa.pd.dbasis[a] @ z[b]
                lhs[a, b] = pa.pd.eta @ br
        rhs = z @ (hphi - hphi.T) @ z.T
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)
        saw_nonzero = saw_nonzero or np.max(np.abs(rhs)) > 1e-3
    assert saw_nonzero


def test_cor_wzory_vacuous_at_n0():
    scene = hyperbola_scene(samples=[[0.1]])
    report = run_suite(scene, "COR_WZORY")
    assert report.status == "vacuous"
    assert report.passed
    d = report.to_dict()
    assert d["status"] == "vacuous" and d["skip_reasons"] == [None]


# ----------------------------------------------------------------------
# metric-gated lemma batteries


def test_lem_est_on_quadrics():
    for n, seed in [(1, 89), (2, 90)]:
        scene = quadric_scene(random_quadric_spec(n, seed), seed=seed, num_samples=5)
        for ids in identities(scene, "LEM_EST"):
            assert ids["eta_equals_h_xi"] <= 1e-8
            assert ids["shape_preserves_kernel"] <= 1e-8
            assert ids["z0_in_kernel"] <= 1e-8
            assert ids["tau_from_z0"] <= 1e-8
            assert ids["info_z0_norm"] <= 1e-8


def test_lem_est_hyperbola_z0_vanishes():
    scene = hyperbola_scene(samples=[[0.5]])
    (ids,) = identities(scene, "LEM_EST")
    assert ids["info_z0_norm"] <= 1e-12


def test_lem_est_gate_on_perturbed_scene():
    scene = perturbed_scene(random_quadric_spec(1, 91), epsilon=0.1, seed=91,
                            num_samples=3)
    report = run_suite(scene, "LEM_EST")
    assert report.skip_reasons[0].startswith("gate: structure not metric")
    assert report.status == "skipped"
    assert all(r.startswith("gate:") for r in report.skip_reasons)


def test_lem_cubic_on_quadrics():
    for n, seed in [(1, 92), (2, 93)]:
        scene = quadric_scene(random_quadric_spec(n, seed), seed=seed, num_samples=5)
        for ids in identities(scene, "LEM_CUBIC"):
            assert ids["cubic_phi_reflection"] <= 1e-7
            assert ids["cubic_kernel_vanishing"] <= 1e-7
            assert ids["cubic_reeb_slot"] <= 1e-7
            assert ids["info_h_shape_phi"] <= 1e-8


def test_lem_cubic_vacuous_at_n0():
    scene = hyperbola_scene(samples=[[0.2]])
    report = run_suite(scene, "LEM_CUBIC")
    assert report.status == "vacuous"


# ----------------------------------------------------------------------
# S and tau


def test_thm_stau_on_quadrics():
    scene = quadric_scene(random_quadric_spec(2, 94), seed=94, num_samples=6)
    for ids in identities(scene, "THM_STAU"):
        assert ids["s_plus_id"] <= 1e-8
        assert ids["tau_norm"] <= 1e-8


def test_thm_stau_hyperbola_exact():
    scene = hyperbola_scene(samples=[[0.7]])
    (ids,) = identities(scene, "THM_STAU")
    assert ids["s_plus_id"] <= 1e-14
    assert ids["tau_norm"] <= 1e-14


def test_thm_stau_perturbed_diagnostic_mode():
    spec = random_quadric_spec(1, 95)
    scene = perturbed_scene(spec, epsilon=0.1, seed=95, num_samples=8)
    gated = run_suite(scene, "THM_STAU")
    for reason in gated.skip_reasons:
        assert reason.startswith("gate: structure not metric")
    hits = 0
    for ids in identities(scene, "THM_STAU", diagnostic=True):
        if ids["s_plus_id"] > 1e-2:
            hits += 1
    assert hits >= int(0.9 * len(scene.samples))


# ----------------------------------------------------------------------
# cubic form / forward classification


def test_quadric_forward_battery():
    scene = quadric_scene(random_quadric_spec(1, 96), seed=96, num_samples=6)
    for ids in identities(scene, "THM_QUADRIC_FWD"):
        assert ids["cubic_max"] <= 1e-7


def test_quadric_forward_fails_on_generic_graph():
    scene = random_graph_scene(1, seed=97, num_samples=8)
    hits = 0
    for ids in identities(scene, "THM_QUADRIC_FWD", diagnostic=True):
        if ids["cubic_max"] > 1e-3:
            hits += 1
    assert hits >= int(0.75 * len(scene.samples))


# ----------------------------------------------------------------------
# suite runner and gates


def test_all_suites_pass_on_quadric_scene():
    scene = quadric_scene(random_quadric_spec(1, 98), seed=98, num_samples=6)
    for suite in SCENE_SUITES:
        report = run_suite(scene, suite)
        assert report.status == "passed", (suite, report.max_residual)
        assert report.num_skipped == 0


def test_normality_computed_once_per_scene(monkeypatch):
    # PROP_NORMAL, THM_EQUIV and the converse row share one normality
    # evaluation, on the whole batch, when they run over the same analysis.
    calls = []
    real = theorems.normality_residuals

    def counted(pd, ind):
        calls.append(ind.u)
        return real(pd, ind)

    monkeypatch.setattr(theorems, "normality_residuals", counted)
    scene = quadric_scene(random_quadric_spec(1, 98), seed=98, num_samples=6)
    analyses = analyze_scene(scene)
    for suite in SCENE_SUITES + ("THM_QUADRIC_CONV",):
        assert run_suite(scene, suite, analyses=analyses).status == "passed", suite
    assert len(calls) == 1
    assert calls[0].shape == (len(scene.samples), scene.chart_dim)


def test_gates_and_h_degeneracy_computed_once_per_analysis(monkeypatch):
    # Every gated battery reads the two gate verdicts from one evaluation
    # per batch, and everything that reads h's degeneracy, signature, |h| or
    # h^{-1}, in theorems and paracontact alike, reads one eigendecomposition
    # of h per batch: every battery of a verify makes one eigh call in all.
    scores, factored = [], []
    real_score, real_eigh = theorems._score, np.linalg.eigh

    def counted_score(residuals, tol):
        scores.append(list(residuals))
        return real_score(residuals, tol)

    def counted_eigh(a):
        factored.append(a.shape)
        return real_eigh(a)

    monkeypatch.setattr(theorems, "_score", counted_score)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    scene = quadric_scene(random_quadric_spec(1, 98), seed=98, num_samples=6)
    analyses = analyze_scene(scene)
    for suite in theorems._BATTERIES:
        assert run_suite(scene, suite, analyses=analyses).status == "passed", suite
    assert scores.count(["j_tangency"]) == 1
    assert scores.count(["metric"]) == 1
    assert factored == [(len(scene.samples), 3, 3)]


def test_degenerate_h_skips_only_the_batteries_that_invert_it():
    # n = 0: the graph u -> u^3 with C = (0, 1) has h = 0 at u = 0.  THM_EQUIV
    # needs h^{-1} (Levi-Civita) and skips that sample; at n = 0 the
    # operational normality defect needs no h, so PROP_NORMAL scores it, as
    # METRIC does.
    scene = graph_scene(Polynomial(1, [((3,), 1.0)]), samples=[[0.0], [0.5]])
    equiv = run_suite(scene, "THM_EQUIV", diagnostic=True)
    assert equiv.skip_reasons == [
        "degenerate: h eigenvalue ratio 0 below floor 1e-05",
        None,
    ]
    for suite in ("PROP_NORMAL", "METRIC"):
        report = run_suite(scene, suite, diagnostic=True)
        assert report.num_skipped == 0, suite
    assert run_suite(scene, "PROP_NORMAL", diagnostic=True).status == "passed"

    # n = 1: one sample's h made degenerate (eigenvalue ratio 1e-6, or not
    # finite) skips that sample alone in every battery that needs h^{-1},
    # and leaves its neighbours' identities as they were.
    scene = quadric_scene(random_quadric_spec(1, 130), seed=130, num_samples=3)
    batch = analyze_scene(scene)
    for bad_h, ratio in ((np.diag([1.0, 1e-6, -1e-6]), "1e-06"), (np.full((3, 3), np.nan), "nan")):
        h = batch.ind.h.copy()
        h[1] = bad_h
        bad = replace(batch, ind=replace(batch.ind, h=h))
        # Every body is pure: the degenerate h is a skip of run_suite, never
        # a failure a body writes into the analysis record.
        for theorem_id, battery in theorems._BATTERIES.items():
            battery.body(bad)
            assert list(bad.pd.faults) == [None] * 3, (ratio, theorem_id)
        # THM_EQUIV first: PROP_NORMAL then reads the normality it cached.
        for suite in ("THM_EQUIV", "PROP_NORMAL", "THM_QUADRIC_CONV"):
            got = run_suite(scene, suite, analyses=bad)
            want = run_suite(scene, suite, analyses=batch)
            assert got.skip_reasons == [
                None,
                f"degenerate: h eigenvalue ratio {ratio} below floor 1e-05",
                None,
            ], (ratio, suite)
            assert want.num_skipped == 0, suite
            for i in (0, 2):
                assert row(got, i) == row(want, i), (ratio, suite, i)
        assert run_suite(scene, "METRIC", analyses=bad).num_skipped == 0, ratio


@pytest.mark.parametrize("theorem_id", list(theorems._BATTERIES))
def test_score_calls_per_suite_do_not_grow_with_samples(theorem_id, monkeypatch):
    calls = []
    real = theorems._score

    def counted(residuals, tol):
        calls.append(list(residuals))
        return real(residuals, tol)

    monkeypatch.setattr(theorems, "_score", counted)
    scene = quadric_scene(random_quadric_spec(1, 98), seed=98, num_samples=6)
    counts = []
    for samples in (scene.samples[:2], scene.samples):
        calls.clear()
        report = run_suite(replace(scene, samples=samples), theorem_id)
        assert report.status == "passed" and len(report.skip_reasons) == len(samples)
        counts.append(len(calls))
    assert counts[0] == counts[1], counts


def test_metric_suite_fails_on_perturbed_scene():
    scene = perturbed_scene(random_quadric_spec(1, 99), epsilon=0.1, seed=99,
                            num_samples=6)
    report = run_suite(scene, "METRIC")
    assert report.status == "failed"
    gated = run_suite(scene, "THM_STAU")
    assert gated.status == "skipped"
    diag = run_suite(scene, "THM_STAU", diagnostic=True)
    assert diag.status == "failed"


def test_prop_normal_consistency_on_perturbed_scene():
    # Neither side of the normality equivalence holds, which is consistent.
    scene = perturbed_scene(random_quadric_spec(1, 100), epsilon=0.1, seed=100,
                            num_samples=6)
    report = run_suite(scene, "PROP_NORMAL")
    for i, reason in enumerate(report.skip_reasons):
        if reason is not None:
            continue
        assert (report.identities["nijenhuis"][i] > 1e-6) == (
            report.identities["operational"][i] > 1e-6
        )


def test_monotone_metric_residual_in_epsilon():
    spec = random_quadric_spec(1, 101)
    base = quadric_scene(spec, seed=101, num_samples=5)
    prev = None
    for eps in (0.1, 0.01, 0.001):
        scene = perturbed_scene(
            spec,
            epsilon=eps,
            seed=101,
            num_samples=5,
            base_point=base.params["base_point"],
            basis=base.params["basis"],
        )
        worst = max(float(np.max(np.abs(analyze_point(scene, u).metric))) for u in scene.samples)
        if prev is not None:
            assert worst <= prev / 5.0
        prev = worst


def test_score_reduces_residuals_to_python_values():
    # Two samples, the sample axis in front of every residual.
    residuals = {
        "signed": np.array([[[0.5, -2.0], [1.0, 0.0]], [[0.0, 0.125], [-0.5, 0.0]]]),
        "scalar": np.array([-0.25, 0.0]),
        "column": np.array([[-0.75], [0.5]]),
        "empty": np.zeros((2, 0, 3)),
        "info_z0_norm": np.array([[-7.0], [0.0]]),
    }
    ids, vacuous, worst, ok = theorems._score(residuals, 1.0)
    assert ids == {
        "signed": [2.0, 0.5], "scalar": [0.25, 0.0], "column": [0.75, 0.5],
        "empty": [0.0, 0.0], "info_z0_norm": [7.0, 0.0],
    }
    assert all(type(v) is float for values in ids.values() for v in values)
    assert vacuous == ["empty"]
    assert worst == [2.0, 0.5] and all(type(w) is float for w in worst)
    assert ok == [False, True]
    # The informational 7.0 counts neither in worst nor against the tolerance.
    assert theorems._score(residuals, 3.0)[2:] == ([2.0, 0.5], [True, True])
    assert all(type(v) is bool for v in theorems._score(residuals, 3.0)[3])
    # Per-identity tolerances are looked up only for counted identities.
    limits = {"signed": 2.5, "scalar": 0.1, "column": 1.0}
    assert theorems._score(residuals, limits)[3] == [False, True]


def test_failing_report_rows_round_trip_as_plain_json():
    scene = perturbed_scene(random_quadric_spec(1, 99), epsilon=0.1, seed=99,
                            num_samples=6)
    d = run_suite(scene, "METRIC").to_dict()
    assert d["status"] == "failed"
    assert json.loads(json.dumps(d)) == d
    assert d["num_skipped"] == 0
    assert False in d["ok"]
    assert all(type(ok) is bool for ok in d["ok"])
    assert all(type(w) is float for w in d["worst"])
    assert all(type(v) is float for col in d["identities"].values() for v in col)


def test_skipped_samples_read_none_outside_skip_reasons():
    # Sample 1's h is degenerate and sample 2 fails the metric gate: THM_EQUIV
    # skips both, the ungated converse row (which has signatures) sample 1.
    scene = quadric_scene(random_quadric_spec(1, 130), seed=130, num_samples=3)
    batch = analyze_scene(scene)
    h = batch.ind.h.copy()
    h[1] = np.diag([1.0, 1e-6, -1e-6])
    metric = batch.metric.copy()
    metric[2] = 1.0
    bad = replace(batch, ind=replace(batch.ind, h=h), metric=metric)
    for suite, skipped in (("THM_EQUIV", [False, True, True]),
                           ("THM_QUADRIC_CONV", [False, True, False])):
        report = run_suite(scene, suite, analyses=bad)
        assert [r is not None for r in report.skip_reasons] == skipped, suite
        assert report.skip_reasons[1].startswith("degenerate:")
        columns = [report.worst, report.ok, *report.identities.values()]
        if suite == "THM_QUADRIC_CONV":
            columns.append(report.signatures)
        assert len(columns) > 2
        for column in columns:
            assert [v is None for v in column] == skipped, suite
    assert run_suite(scene, "THM_EQUIV", analyses=bad).skip_reasons[2].startswith("gate:")
    # With every sample skipped, the body never runs: no identity columns,
    # and None once per sample in the others.
    report = run_suite(scene, "THM_STAU", analyses=replace(batch, metric=batch.metric + 1.0))
    assert report.status == "skipped" and report.identities == {}
    assert report.worst == report.ok == [None] * 3


def test_score_fails_nan_and_shows_it_in_worst():
    nan = float("nan")
    for residual in (np.array([nan]), np.array([[nan]]), np.full((1, 2, 2), nan)):
        ids, vacuous, worst, ok = theorems._score({"x": residual}, 1e-8)
        assert np.isnan(ids["x"][0]) and np.isnan(worst[0])
        assert vacuous == [] and ok == [False]
    # A NaN shows in worst wherever it sits among finite residuals, and fails
    # under a per-identity tolerance too; only its own sample.
    a = np.array([[1.0, nan], [1.0, 2.0]])
    b = np.array([0.5, 0.5])
    for residuals in ({"a": a, "b": b}, {"b": b, "a": a}):
        _, _, worst, ok = theorems._score(residuals, {"a": 10.0, "b": 10.0})
        assert np.isnan(worst[0]) and ok[0] is False
        assert worst[1] == 2.0 and ok[1] is True
    # Informational identities still never count.
    residuals = {"info_z0_norm": np.array([nan]), "x": np.array([0.5])}
    assert theorems._score(residuals, 1.0)[2:] == ([0.5], [True])


def test_nan_gate_residuals_skip_and_nan_residuals_fail(monkeypatch):
    nan = float("nan")
    scene = quadric_scene(fixed_n1_spec(), seed=97, num_samples=2)
    batch = analyze_scene(scene)
    tangency = batch.pd.tangency.copy()
    tangency[:] = nan
    not_tangent = replace(batch, pd=replace(batch.pd, tangency=tangency))
    metric = batch.metric.copy()
    metric[:] = nan
    not_metric = replace(batch, metric=metric)

    report = run_suite(scene, "TW_WZORY", analyses=not_tangent)
    assert report.status == "skipped"
    assert report.skip_reasons[0] == "gate: transversal not J-tangent (residual nan)"
    report = run_suite(scene, "LEM_EST", analyses=not_metric)
    assert report.skip_reasons[0] == "gate: structure not metric (residual nan)"

    # Ungated, the NaN fails the sample and shows in both maxima.
    metric = batch.metric.copy()
    metric[1] = nan
    report = run_suite(scene, "METRIC", analyses=replace(batch, metric=metric))
    assert report.status == "failed"
    assert report.ok == [True, False]
    assert np.isnan(report.worst[1])
    assert np.isnan(report.max_residual)

    # Both normality defects NaN: neither side of the equivalence holds.
    both_nan = (np.full((2, 1), nan), np.full((2, 1), nan))
    monkeypatch.setattr(theorems, "normality_residuals", lambda pd, ind: both_nan)
    assert run_suite(scene, "PROP_NORMAL", analyses=batch).status == "failed"


def test_engine_row_is_an_ungated_battery_at_the_engine_tolerance():
    scene = quadric_scene(
        fixed_n1_spec(), seed=96, num_samples=3, tolerances={"engine": 1e-9, "theorem": 1e-8}
    )
    assert "ENGINE" not in SCENE_SUITES
    report = run_suite(scene, "ENGINE")
    assert report.status == "passed" and report.gate is None
    assert report.tolerance == 1e-9
    for i, u in enumerate(scene.samples):
        ids, want = row(report, i), fundamental_residuals(scene, u)
        assert list(ids) == list(want)
        for name, residual in want.items():
            assert ids[name] == float(np.max(np.abs(residual)))


# Identities quantified over ker(eta), which is trivial at n = 0, in body order.
N0_VACUOUS = {
    "COR_WZORY": [
        "eta_nabla_zw", "eta_nabla_xi_z", "phi_nabla_zw", "eta_bracket_zw",
        "eta_bracket_z_xi",
    ],
    "LEM_EST": ["shape_preserves_kernel", "tau_from_z0"],
    "LEM_CUBIC": ["cubic_phi_reflection", "cubic_kernel_vanishing", "cubic_reeb_slot"],
}


@pytest.mark.parametrize(
    "scene",
    [
        hyperbola_scene(seed=103, num_samples=3),
        quadric_scene(random_quadric_spec(0, 104), seed=104, num_samples=3),
        random_graph_scene(0, seed=105, num_samples=3),
    ],
    ids=["hyperbola", "quadric n=0", "graph n=0"],
)
def test_n0_vacuous_identities(scene):
    analyses = analyze_scene(scene)
    for theorem_id, names in N0_VACUOUS.items():
        report = run_suite(scene, theorem_id, diagnostic=True, analyses=analyses)
        for reason in report.skip_reasons:
            assert reason is None, (theorem_id, reason)
        assert report.vacuous_identities == names, theorem_id
        assert all(v == 0.0 for k in names for v in report.identities[k])
        # LEM_EST keeps two identities that do not quantify over ker(eta).
        d = report.to_dict()
        assert (d["status"] == "vacuous") == (theorem_id != "LEM_EST"), theorem_id
        assert d["vacuous_identities"] == names


def test_scene_without_samples_skips_every_suite():
    scene = ImmersionScene(family="hyperbola", n=0, params={})
    assert analyze_scene(scene) is None
    for suite in SCENE_SUITES + ("ENGINE", "THM_QUADRIC_CONV"):
        report = run_suite(scene, suite)
        assert report.status == "skipped" and report.skip_reasons == [], suite
    report, code = run_verification(scene, SCENE_SUITES, timing=False)
    assert report["samples"]["total"] == 0
    assert report["overall"] == "degenerate" and code == EXIT_DEGENERATE


def test_unknown_suite_id():
    scene = hyperbola_scene(samples=[[0.0]])
    with pytest.raises(KeyError):
        run_suite(scene, "THM_NOPE")


def test_a_new_battery_is_one_record_run_suite_needs_no_edit(monkeypatch):
    # A battery with its own verdict rule (ok where the residual exceeds the
    # tolerance) and an extra column, gated and inverting h: run_suite reads
    # all of it from the record.  Sample 1's h is degenerate, sample 3 fails
    # the metric gate.
    scene = quadric_scene(random_quadric_spec(1, 130), seed=130, num_samples=4)
    batch = analyze_scene(scene)
    h, metric = batch.ind.h.copy(), batch.metric.copy()
    h[1] = np.diag([1.0, 1e-6, -1e-6])
    metric[3] = 1.0
    bad = replace(batch, ind=replace(batch.ind, h=h), metric=metric)
    battery = theorems._Battery(
        lambda pa: {"x": np.array([0.0, 0.0, 2.0, 2.0]), "info_z0_norm": np.ones((4, 2))},
        gate="metric",
        inverts_h=0,
        verdict=lambda score, tol: [v > tol for v in score[0]["x"]],
        columns={"signatures": lambda pa: [f"sample {i}" for i in range(len(pa.u))]},
    )
    monkeypatch.setitem(theorems._BATTERIES, "THM_NEW", battery)
    report = run_suite(scene, "THM_NEW", analyses=bad)
    assert report.gate == "metric" and report.tolerance == scene.tolerances["theorem"]
    assert report.skip_reasons[0] is None and report.skip_reasons[2] is None
    assert report.skip_reasons[1].startswith("degenerate: h eigenvalue ratio")
    assert report.skip_reasons[3] == "gate: structure not metric (residual 1)"
    assert report.ok == [False, None, True, None] and report.status == "failed"
    assert report.identities["x"] == [0.0, None, 2.0, None]
    assert report.to_dict()["signatures"] == ["sample 0", None, "sample 2", None]
    # The default rule on the same record passes nothing above the tolerance.
    default = replace(battery, verdict=theorems._within_tolerance)
    monkeypatch.setitem(theorems._BATTERIES, "THM_NEW", default)
    assert run_suite(scene, "THM_NEW", analyses=bad).ok == [True, None, False, None]


# ----------------------------------------------------------------------
# converse battery


def test_converse_on_fixed_n1_spec():
    report = verify_quadric_converse(fixed_n1_spec(), num_samples=20, seed=7)
    assert report.status == "passed"
    assert report.theorem_id == "THM_QUADRIC_CONV"
    assert len(report.skip_reasons) == 20
    assert report.signatures == [[2, 1]] * 20


def test_converse_matches_hyperbola_closed_form():
    spec = QuadricSpec(n=0, P=np.array([[1.0]]), R_skew=np.array([[0.0]]))
    report = verify_quadric_converse(spec, num_samples=10, seed=3)
    assert report.status == "passed"
    hyper = hyperbola_scene(seed=3, num_samples=10)
    for i, u in enumerate(hyper.samples):
        ids = row(report, i)
        pa = analyze_point(hyper, u)
        closed_form = {
            "j_tangency": pa.pd.tangency,
            "metric": float(np.max(np.abs(pa.metric))),
            "s_plus_id": float(np.max(np.abs(pa.ind.S + np.eye(1)))),
            "tau_norm": float(np.max(np.abs(pa.ind.tau))),
            "cubic_max": float(np.max(np.abs(pa.der.Q))),
        }
        for key, want in closed_form.items():
            assert abs(ids[key] - want) <= 1e-10


def test_converse_detects_sphere_style_matrix():
    # Inject a J-symmetric (not anticommuting) matrix behind the constructor:
    # the position transversal is no longer J-tangent and the battery fails.
    spec = fixed_n1_spec()
    bad = np.eye(4)
    spec.A = bad
    report = verify_quadric_converse(spec, num_samples=5, seed=11)
    assert report.status == "failed"
    for tangency, metric in zip(report.identities["j_tangency"], report.identities["metric"]):
        assert tangency > 1e-3 or metric > 1e-3


def test_converse_is_a_battery_row():
    spec = random_quadric_spec(1, 102)
    report = verify_quadric_converse(spec, num_samples=4, seed=102)
    scene = quadric_scene(spec, seed=102, num_samples=4)
    assert run_suite(scene, "THM_QUADRIC_CONV").to_dict() == report.to_dict()
    assert report.gate is None
    assert report.tolerance == CONVERSE_TOLERANCES
    assert report.tolerance is not CONVERSE_TOLERANCES
    assert "THM_QUADRIC_CONV" not in SCENE_SUITES


def test_converse_report_serializes():
    report = verify_quadric_converse(fixed_n1_spec(), num_samples=3, seed=5)
    d = report.to_dict()
    assert d["theorem_id"] == "THM_QUADRIC_CONV"
    assert len(d["skip_reasons"]) == len(d["worst"]) == len(d["ok"]) == 3
    assert d["signatures"] == [[2, 1]] * 3
    assert isinstance(d["tolerance"], dict)
