"""The batched epsilon sweep against its golden table and its per-epsilon loop.

``parageom sweep`` analyses every epsilon in one batch over the scene's own
S samples: row e*S + k of the batch is sample k at values[e].  The reference below keeps the
algorithm it replaced, one ``run_verification`` per epsilon on the scene
with that epsilon, and both must print the same table and exit alike.

``tests/data/perturbed_n1.sweep.txt`` is the stdout of ``parageom sweep
tests/data/perturbed_n1.json --values 0.1,0.01,0.001,0.0001,1e-06,1e-08``,
written by the per-epsilon loop before the sweep was batched.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from parageom.cli import (
    EXIT_DEGENERATE,
    EXIT_PASS,
    load_scene_file,
    main,
    quadric_scene_dict,
    run_verification,
)
from parageom import hypersurface
from parageom.hypersurface import eval_immersion, induced_data, perturbed_scene
from parageom.jets import MAX_ORDER
from parageom.paracomplex import random_quadric_spec

DATA = Path(__file__).parent / "data"
GOLDEN_VALUES = "0.1,0.01,0.001,0.0001,1e-06,1e-08"


def sweep(capsys, path, values):
    """(stdout lines, exit code) of ``parageom sweep path --values values``."""
    capsys.readouterr()
    code = main(["sweep", str(path), "--values", values])
    return capsys.readouterr().out.splitlines(), code


def scored_max(report, suite, name):
    """Max of one identity over a suite's unskipped samples, nan if none."""
    column = report["suites"][suite].identities.get(name, [])
    scored = [v for v in column if v is not None]
    return float(np.max(scored)) if scored else math.nan


def reference_sweep(path, values):
    """The per-epsilon loop: one verification run per epsilon."""
    scene, _, _ = load_scene_file(str(path))
    lines = [f"{'epsilon':>10}  {'metric':>12}  {'s_plus_id':>12}  {'tau':>12}"]
    worst_code = EXIT_PASS
    for eps in values:
        swept = dataclasses.replace(scene, params={**scene.params, "epsilon": eps})
        report, code = run_verification(
            swept, ["METRIC", "THM_STAU"], diagnostic=True, timing=False
        )
        if code == EXIT_DEGENERATE:
            worst_code = EXIT_DEGENERATE
        metric = scored_max(report, "METRIC", "metric")
        s_plus = scored_max(report, "THM_STAU", "s_plus_id")
        tau = scored_max(report, "THM_STAU", "tau_norm")
        lines.append(f"{eps:>10.4g}  {metric:>12.4e}  {s_plus:>12.4e}  {tau:>12.4e}")
    return lines, worst_code


def perturbed_file(tmp_path, n, seed, num_samples, epsilon=0.1):
    data = quadric_scene_dict(n, seed, num_samples=num_samples)
    data["scene"]["family"] = "perturbed_transversal"
    data["scene"]["params"]["epsilon"] = epsilon
    path = tmp_path / f"perturbed_n{n}.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_sweep_reproduces_golden_table(capsys):
    lines, code = sweep(capsys, DATA / "perturbed_n1.json", GOLDEN_VALUES)
    assert code == EXIT_PASS
    golden = (DATA / "perturbed_n1.sweep.txt").read_text(encoding="utf-8")
    assert "\n".join(lines) + "\n" == golden


@pytest.mark.parametrize(
    "n,seed,num_samples",
    [(1, 5, 8), (2, 3, 4)],
    ids=["n1", "n2"],
)
@pytest.mark.parametrize(
    "values",
    [GOLDEN_VALUES, "0", "1e3,10,0.5", "0.01,1e5,0.1"],
)
def test_batched_sweep_matches_per_epsilon_loop(tmp_path, capsys, n, seed, num_samples, values):
    path = perturbed_file(tmp_path, n, seed, num_samples)
    got = sweep(capsys, path, values)
    want = reference_sweep(path, [float(v) for v in values.split(",")])
    assert got == want


@pytest.mark.parametrize("bad", ["1e300", "1e5"])
def test_degenerate_epsilon_stays_in_its_rows(capsys, bad):
    path = DATA / "perturbed_n1.json"
    alone, alone_code = sweep(capsys, path, "0.01")
    lines, code = sweep(capsys, path, f"0.01,{bad}")
    assert alone_code == EXIT_PASS
    assert code == EXIT_DEGENERATE
    assert lines[:2] == alone
    assert len(lines) == 3
    eps, *columns = lines[2].split()
    assert float(eps) == float(bad)
    assert columns == ["nan"] * 3


def test_eval_immersion_per_row_epsilon_matches_scalar():
    spec = random_quadric_spec(1, 11)
    scene = perturbed_scene(spec, 0.1, seed=11, num_samples=5)
    values = [0.3, 0.0, 1e-6, 2.5]
    u = np.concatenate([np.stack(scene.samples)] * len(values))
    eps = np.repeat(values, len(scene.samples))
    f, c = eval_immersion(dataclasses.replace(scene, params={**scene.params, "epsilon": eps}), u)
    for row in range(len(u)):
        at = dataclasses.replace(scene, params={**scene.params, "epsilon": float(eps[row])})
        f_row, c_row = eval_immersion(at, u[row])
        assert np.array_equal(f[row], f_row)
        assert np.array_equal(c[row], c_row)


def test_sweep_evaluates_the_immersion_once_per_sample(capsys, monkeypatch):
    # Only C = f + eps W depends on epsilon: the order-3 jets of f and W are
    # evaluated at the S samples once, not at every (epsilon, sample) row,
    # and the table stays the golden one.
    calls = []
    real = hypersurface.eval_immersion

    def counted(scene, u, order=MAX_ORDER):
        calls.append((order, np.shape(u)))
        return real(scene, u, order)

    monkeypatch.setattr(hypersurface, "eval_immersion", counted)
    path = DATA / "perturbed_n1.json"
    num = len(load_scene_file(str(path))[0].samples)
    calls.clear()
    lines, code = sweep(capsys, path, GOLDEN_VALUES)
    assert code == EXIT_PASS
    assert "\n".join(lines) + "\n" == (DATA / "perturbed_n1.sweep.txt").read_text(encoding="utf-8")
    assert [shape for order, shape in calls if order == MAX_ORDER] == [(num, 3)]


def test_epsilon_column_matches_one_epsilon_per_row():
    # A column of epsilons over the S points gives E * S rows, bit for bit
    # the analysis of E copies of the points with one epsilon per row.
    spec = random_quadric_spec(2, 3)
    scene = perturbed_scene(spec, 0.1, seed=3, num_samples=4)
    values = np.array([0.3, 0.0, 1e-6])
    points = np.stack(scene.samples)
    u = np.concatenate([points] * len(values))
    per_row = induced_data(
        dataclasses.replace(scene, params={**scene.params, "epsilon": np.repeat(values, 4)}), u
    )
    column = dataclasses.replace(scene, params={**scene.params, "epsilon": values[:, None]})
    got = induced_data(column, points)
    for name in ("u", "Gamma", "h", "S", "tau", "dGamma", "dh", "dS", "dtau_raw"):
        assert np.array_equal(getattr(got, name), getattr(per_row, name)), name
    assert list(got.faults) == list(per_row.faults)
