"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import time

import numpy as np
import pytest

from parageom.cli import cmd_gen_quadric, cmd_verify
from parageom.hypersurface import (
    fundamental_residuals,
    hyperbola_scene,
    induced_data,
    perturbed_scene,
    quadric_scene,
    random_graph_scene,
)
from parageom.jets import analytic, extract_partial, seed_variable
from parageom.paracomplex import QuadricSpec, random_quadric_spec
from parageom.paracontact import (
    contact_residual,
    normality_residuals,
    sasakian_residual,
)
from parageom.theorems import (
    analyze_point,
    analyze_scene,
    run_suite,
    verify_quadric_converse,
)


def _report(num: int, name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ----------------------------------------------------------------------
# criterion 1: engine self-test across 100 random scenes


def test_acceptance_1_engine_self_test():
    t0 = time.perf_counter()
    worst = 0.0
    num_scenes = 0
    num_samples = 0
    for k in range(20):
        scenes = [
            quadric_scene(random_quadric_spec(1, 1000 + k), seed=1000 + k),
            quadric_scene(random_quadric_spec(2, 2000 + k), seed=2000 + k),
            random_graph_scene(1 + k % 2, seed=3000 + k),
            hyperbola_scene(seed=4000 + k),
            perturbed_scene(
                random_quadric_spec(1 + k % 2, 5000 + k),
                epsilon=(0.1, 0.05, 0.01)[k % 3],
                seed=5000 + k,
            ),
        ]
        for scene in scenes:
            num_scenes += 1
            for u in scene.samples:
                num_samples += 1
                residuals = fundamental_residuals(scene, u).values()
                worst = max(worst, max(float(np.max(np.abs(r))) for r in residuals))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 60.0 and num_scenes == 100
    _report(
        1,
        "engine self-test",
        ok,
        f"{num_scenes} scenes / {num_samples} samples, max residual {worst:.2e}, "
        f"{elapsed:.1f}s",
    )


# ----------------------------------------------------------------------
# criterion 2: jet derivatives vs finite differences

_STENCILS = {
    1: ((-2, -1, 1, 2), (1 / 12, -8 / 12, 8 / 12, -1 / 12), 1e-3),
    2: ((-2, -1, 0, 1, 2), (-1 / 12, 16 / 12, -30 / 12, 16 / 12, -1 / 12), 1e-2),
    3: ((-3, -2, -1, 1, 2, 3), (1 / 8, -1, 13 / 8, -13 / 8, 1, -1 / 8), 5e-3),
}

_SCALAR = {"sqrt": math.sqrt, "cosh": math.cosh, "sinh": math.sinh, "exp": math.exp}


def test_acceptance_2_jet_finite_difference_agreement():
    rng = np.random.default_rng(2024)
    worst = 0.0
    points = 0
    for _ in range(100):
        fn = rng.choice(list(_SCALAR))
        x = float(rng.uniform(1.0, 3.0) if fn == "sqrt" else rng.uniform(-1.5, 1.5))
        jet = analytic(seed_variable(0, x, 1), fn)
        points += 1
        for order in (1, 2, 3):
            offsets, weights, h = _STENCILS[order]
            fd = sum(w * _SCALAR[fn](x + k * h) for k, w in zip(offsets, weights))
            fd /= h**order
            got = extract_partial(jet, (order,))
            rel = abs(got - fd) / max(1.0, abs(fd))
            worst = max(worst, rel)
    ok = worst <= 1e-6
    _report(
        2,
        "jet correctness",
        ok,
        f"{points} points x orders 1-3 x 4 functions, worst relative error {worst:.2e}",
    )


# ----------------------------------------------------------------------
# criteria 3-5 share the 50 seeded quadric specs


@pytest.fixture(scope="module")
def converse_reports():
    reports = []
    for seed in range(50):
        n = seed % 3
        spec = random_quadric_spec(n, 7000 + seed)
        reports.append((n, seed, verify_quadric_converse(spec, num_samples=20, seed=seed)))
    return reports


def test_acceptance_3_hyperquadric_converse(converse_reports):
    failures = []
    worst = {}
    for n, seed, rep in converse_reports:
        if not rep.passed:
            failures.append((n, seed))
        for s in rep.per_sample:
            for key, val in s.identities.items():
                worst[key] = max(worst.get(key, 0.0), abs(val))
    ok = not failures and len(converse_reports) == 50
    detail = (
        f"50 specs (n in 0..2), 20 samples each; worst: "
        f"tangency {worst['j_tangency']:.1e}, metric {worst['metric']:.1e}, "
        f"S+Id {worst['s_plus_id']:.1e}, tau {worst['tau_norm']:.1e}, "
        f"Q {worst['cubic_max']:.1e}, contact {worst['contact_minus_one']:.1e}, "
        f"sasakian {worst['sasakian_minus_one']:.1e}"
    )
    if failures:
        detail += f"; failed specs {failures}"
    _report(3, "hyperquadric converse", ok, detail)


def test_acceptance_4_equivalence_theorem(converse_reports):
    # Forward: wherever the structure is metric, the (-1)-contact and
    # (-1)-Sasakian conditions hold on the very same sample.
    joint_ok = True
    for _, _, rep in converse_reports:
        for s in rep.per_sample:
            ids = s.identities
            if ids["metric"] <= 1e-8 and not (
                ids["contact_minus_one"] <= 1e-6
                and ids["sasakian_minus_one"] <= 1e-6
                and ids["nijenhuis"] <= 1e-6
                and ids["operational"] <= 1e-6
            ):
                joint_ok = False

    # Negative direction: a genuinely non-metric transversal breaks both the
    # metric condition and S = -Id on at least 90% of samples.
    total = hits = 0
    for seed in range(5):
        spec = random_quadric_spec(1 + seed % 2, 7700 + seed)
        scene = perturbed_scene(spec, epsilon=0.1, seed=seed, num_samples=20)
        for pa in analyze_scene(scene):
            assert not isinstance(pa, str)
            total += 1
            m = pa.ind.S.shape[0]
            s_plus_id = float(np.max(np.abs(pa.ind.S + np.eye(m))))
            if float(np.max(np.abs(pa.metric))) > 1e-3 and s_plus_id > 1e-2:
                hits += 1
    negative_ok = hits >= 0.9 * total
    ok = joint_ok and negative_ok
    _report(
        4,
        "equivalence theorem",
        ok,
        f"joint conditions on all metric samples: {joint_ok}; "
        f"perturbed eps=0.1 breaks metric and S+Id at {hits}/{total} samples",
    )


def test_acceptance_5_lemma_batteries(converse_reports):
    worst = 0.0
    vacuous_flags_ok = True
    checked = 0
    for seed in range(50):
        n = seed % 3
        spec = random_quadric_spec(n, 7000 + seed)
        scene = quadric_scene(spec, seed=seed, num_samples=20)
        analyses = analyze_scene(scene)
        est = run_suite(scene, "LEM_EST", analyses=analyses)
        cubic = run_suite(scene, "LEM_CUBIC", analyses=analyses)
        checked += 1
        if n == 0:
            # Kernel-quantified claims must be flagged vacuous, not silently 0.
            if cubic.status != "vacuous":
                vacuous_flags_ok = False
            for s in est.per_sample:
                if set(s.vacuous_identities) != {"shape_preserves_kernel", "tau_from_z0"}:
                    vacuous_flags_ok = False
        else:
            if not (est.status == "passed" and cubic.status == "passed"):
                vacuous_flags_ok = False
            worst = max(worst, est.max_residual, cubic.max_residual)
    ok = worst <= 1e-7 and vacuous_flags_ok and checked == 50
    _report(
        5,
        "lemma batteries",
        ok,
        f"LEM_EST/LEM_CUBIC over 50 scenes, worst residual {worst:.2e}, "
        f"vacuous flags at n=0: {vacuous_flags_ok}",
    )


# ----------------------------------------------------------------------
# criterion 6: closed-form anchor


def test_acceptance_6_hyperbola_anchor():
    scene = hyperbola_scene(seed=3, num_samples=10)
    worst_closed = 0.0
    for u in scene.samples:
        ind = induced_data(scene, u)
        pa = analyze_point(scene, u)
        worst_closed = max(
            worst_closed,
            abs(ind.Gamma[0, 0, 0]),
            abs(ind.h[0, 0] - 1.0),
            abs(ind.S[0, 0] + 1.0),
            abs(ind.tau[0]),
            abs(pa.pd.xi[0] - 1.0),
        )
    closed_ok = worst_closed <= 1e-12

    spec = QuadricSpec(n=0, P=np.array([[1.0]]), R_skew=np.array([[0.0]]))
    rep = verify_quadric_converse(spec, num_samples=10, seed=3)
    worst_gap = 0.0
    for u, s in zip(scene.samples, rep.per_sample):
        pa = analyze_point(scene, u)
        nij, op = normality_residuals(pa.pd, pa.ind)
        closed_form = {
            "j_tangency": pa.pd.tangency,
            "metric": float(np.max(np.abs(pa.metric))),
            "signature_defect": 0.0 if pa.signature == (1, 0) else 1.0,
            "s_plus_id": float(np.max(np.abs(pa.ind.S + np.eye(1)))),
            "tau_norm": float(np.max(np.abs(pa.ind.tau))),
            "cubic_max": float(np.max(np.abs(pa.der.Q))),
            "contact_minus_one": float(np.max(np.abs(contact_residual(pa.pd, pa.ind.h, -1.0)))),
            "sasakian_minus_one": float(np.max(np.abs(sasakian_residual(pa.pd, pa.ind, -1.0)))),
            "nijenhuis": float(np.max(np.abs(nij))),
            "operational": float(np.max(np.abs(op))),
        }
        for key, want in closed_form.items():
            worst_gap = max(worst_gap, abs(s.identities[key] - want))
    agree_ok = worst_gap <= 1e-10 and rep.passed
    _report(
        6,
        "closed-form anchor",
        closed_ok and agree_ok,
        f"hyperbola closed-form defect {worst_closed:.2e}; "
        f"n=0 quadric-path gap {worst_gap:.2e}",
    )


# ----------------------------------------------------------------------
# criterion 7: determinism


def test_acceptance_7_determinism(tmp_path):
    gen_ok = True
    for n, seed in [(0, 5), (1, 7), (2, 9)]:
        a, b = tmp_path / f"a{n}.json", tmp_path / f"b{n}.json"
        assert cmd_gen_quadric(n, seed, str(a)) == 0
        assert cmd_gen_quadric(n, seed, str(b)) == 0
        gen_ok = gen_ok and a.read_bytes() == b.read_bytes()

    scene_path = tmp_path / "scene.json"
    assert cmd_gen_quadric(1, 7, str(scene_path), num_samples=8) == 0
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cmd_verify(str(scene_path), json_path=str(r1), no_timing=True) == 0
    assert cmd_verify(str(scene_path), json_path=str(r2), no_timing=True) == 0
    verify_ok = r1.read_bytes() == r2.read_bytes()
    json.loads(r1.read_text())  # report must be valid JSON as well
    _report(
        7,
        "determinism",
        gen_ok and verify_ok,
        f"gen-quadric byte-identical: {gen_ok}; verify reports byte-identical: {verify_ok}",
    )
