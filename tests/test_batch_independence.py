"""The batched analysis against each sample analysed alone.

``analyze_scene`` runs the whole pipeline once, on the stack of a scene's
samples, and every battery body runs once per suite on that batch.  Each
sample's slice of every array and of every body's residuals must agree with
analysing that sample alone, and a sample that fails (outside the chart, an
ill-conditioned frame, no ker(eta) pivot) must be reported with the same
message as a single point raises, without touching its neighbours.
"""

from dataclasses import fields, replace

import numpy as np
import pytest

from parageom import paracontact, theorems
from parageom.errors import DegenerateFrame
from parageom.hypersurface import (
    hyperbola_scene,
    perturbed_scene,
    quadric_scene,
    random_graph_scene,
)
from parageom.paracomplex import QuadricSpec, random_quadric_spec
from parageom.theorems import analyze_point, analyze_scene, run_suite

TOL = 1e-13


def scenes():
    yield "hyperbola", hyperbola_scene(seed=110, num_samples=4)
    for n in range(5):
        yield f"quadric n={n}", quadric_scene(
            random_quadric_spec(n, 111 + n), seed=111 + n, num_samples=4
        )
    for n in range(1, 4):
        yield f"perturbed n={n}", perturbed_scene(
            random_quadric_spec(n, 116 + n), epsilon=0.1, seed=116 + n, num_samples=4
        )
    for n in range(3):
        yield f"graph n={n}", random_graph_scene(n, seed=120 + n, num_samples=4)


SCENES = list(scenes())


def arrays(pa, i=None):
    """Every array the batteries read from an analysis, by name; sample
    ``i`` of a batch when given."""
    out = {"metric": pa.metric, "u": pa.u}
    for record in (pa.ind, pa.der, pa.pd):
        for f in fields(record):
            value = getattr(record, f.name)
            if f.name not in ("n", "frame", "faults"):
                out[f"{type(record).__name__}.{f.name}"] = np.asarray(value)
    for key, value in vars(pa.ind.frame).items():
        if isinstance(value, (np.ndarray, np.generic)) and key != "faults":
            out[f"Frame.{key}"] = np.asarray(value)
    return out if i is None else {name: a[i] for name, a in out.items()}


def assert_same_analysis(batch, i, want, label, j=None):
    """Sample ``i`` of ``batch`` against the single point ``want``, or
    against its sample ``j``."""
    got_sig = tuple(batch.signature[i].tolist())
    want_sig = want.signature if j is None else tuple(want.signature[j].tolist())
    assert got_sig == want_sig, label
    a, b = arrays(batch, i), arrays(want, j)
    assert list(a) == list(b), label
    for name in a:
        assert a[name].shape == b[name].shape, (label, name)
        gap = float(np.max(np.abs(a[name] - b[name]), initial=0.0))
        assert gap <= TOL, (label, name, gap)


def describe(fault):
    return f"{type(fault).__name__}: {fault}"


@pytest.mark.parametrize("label,scene", SCENES, ids=[label for label, _ in SCENES])
def test_batch_matches_each_sample_as_a_stack_of_one(label, scene):
    batch = analyze_scene(scene)
    assert len(batch.u) == len(scene.samples)
    for i, fault in enumerate(batch.pd.faults):
        assert fault is None, (label, describe(fault))
        alone = analyze_scene(with_samples(scene, [scene.samples[i]]))
        assert_same_analysis(batch, i, alone, f"{label} sample {i}", j=0)
        assert_same_analysis(batch, i, analyze_point(scene, scene.samples[i]), f"{label} point {i}")


@pytest.mark.parametrize("label,scene", SCENES, ids=[label for label, _ in SCENES])
def test_each_battery_body_runs_once_on_the_batch_and_matches_single_points(
    label, scene, monkeypatch
):
    batch = analyze_scene(scene)
    points = [analyze_point(scene, u) for u in scene.samples]
    for theorem_id, (body, *row) in theorems._BATTERIES.items():
        residuals = body(batch)
        for i, pa in enumerate(points):
            want = body(pa)
            assert list(residuals) == list(want), (label, theorem_id)
            for name, r in residuals.items():
                r, w = np.asarray(r)[i], np.asarray(want[name])
                assert r.shape == w.shape, (label, theorem_id, name, i)
                gap = float(np.max(np.abs(r - w), initial=0.0))
                assert gap <= TOL, (label, theorem_id, name, i, gap)

        calls = []

        def counted(pa, body=body):
            calls.append(pa)
            return body(pa)

        monkeypatch.setitem(theorems._BATTERIES, theorem_id, (counted, *row))
        run_suite(scene, theorem_id, diagnostic=True, analyses=batch)
        assert len(calls) == 1, (label, theorem_id)


def with_samples(scene, samples):
    return replace(scene, samples=[np.asarray(u, dtype=float) for u in samples])


def mixed_scene():
    """Good samples around a point outside the radial chart and one whose
    frame is too ill-conditioned."""
    spec = QuadricSpec(n=1, P=np.eye(2), R_skew=np.array([[0.0, 1.0], [-1.0, 0.0]]))
    x0 = np.array([1.0, 0.0, 0.0, 0.0])
    good = quadric_scene(spec, base_point=x0, seed=4, num_samples=3).samples
    samples = [good[0], [0.0, 2.0, 0.0], good[1], [0.0, 0.99999, 0.0], good[2]]
    return quadric_scene(spec, base_point=x0, samples=samples), good


def test_failed_samples_keep_their_message_and_spare_their_neighbours():
    scene, good = mixed_scene()
    batch = analyze_scene(scene)
    assert describe(batch.pd.faults[1]) == "ChartLeak: quadric value -3 <= 0 at chart point"
    assert describe(batch.pd.faults[3]) == "DegenerateFrame: frame condition number 1e+10"
    report = run_suite(scene, "METRIC")
    assert [s.skip_reason for s in report.per_sample] == [
        None,
        "degenerate: ChartLeak: quadric value -3 <= 0 at chart point",
        None,
        "degenerate: DegenerateFrame: frame condition number 1e+10",
        None,
    ]
    assert report.status == "passed"
    clean = analyze_scene(with_samples(scene, good))
    for j, i in enumerate([0, 2, 4]):
        assert_same_analysis(batch, i, clean, "neighbour", j=j)
    # Every body runs on the whole batch, failed samples included, without a
    # warning; they skip with the same reasons and change no neighbour.
    clean_scene = with_samples(scene, good)
    for theorem_id in theorems._BATTERIES:
        got = run_suite(scene, theorem_id, diagnostic=True, analyses=batch).per_sample
        want = run_suite(clean_scene, theorem_id, diagnostic=True, analyses=clean).per_sample
        assert [s.skip_reason for s in got[1::2]] == [r.skip_reason for r in report.per_sample[1::2]]
        for j, i in enumerate([0, 2, 4]):
            ids, ref = got[i].identities, want[j].identities
            assert list(ids) == list(ref), (theorem_id, i)
            assert all(abs(ids[k] - ref[k]) <= TOL for k in ids), (theorem_id, i)


def test_a_nan_point_fails_alone():
    # Its frame value is not finite: the sample goes on as the flat frame,
    # so no eigenvalue or linear solve of the stack sees a NaN.
    scene, good = mixed_scene()
    batch = analyze_scene(with_samples(scene, [good[0], [np.nan, 0.0, 0.0], good[1]]))
    assert describe(batch.pd.faults[1]) == "DegenerateFrame: frame condition number nan"
    clean = analyze_scene(with_samples(scene, good[:2]))
    for j, i in enumerate([0, 2]):
        assert_same_analysis(batch, i, clean, "neighbour", j=j)


def test_pivot_floor_failures_are_kept_per_sample(monkeypatch):
    # No ker(eta) basis passes an impossible pivot floor: the stack reports
    # each sample, a single point raises, and nothing warns.
    scene = quadric_scene(random_quadric_spec(1, 125), seed=125, num_samples=3)
    monkeypatch.setattr(paracontact, "_DBASIS_PIVOT", 10.0)
    message = "DegenerateFrame: cannot span ker(eta): residual candidates below pivot floor"
    assert [describe(f) for f in analyze_scene(scene).pd.faults] == [message] * 3
    with pytest.raises(DegenerateFrame, match="pivot floor"):
        analyze_point(scene, scene.samples[0])
