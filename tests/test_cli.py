"""Scene files, verification runs, exit codes, determinism."""

import json
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from parageom import theorems
from parageom.cli import (
    EXIT_DEGENERATE,
    EXIT_FAIL,
    EXIT_INPUT,
    EXIT_PASS,
    MAX_N,
    MAX_NUM_SAMPLES,
    cmd_gen_quadric,
    cmd_sweep,
    cmd_verify,
    load_scene_file,
    main,
    quadric_scene_dict,
)

DATA = Path(__file__).parent / "data"


def write_scene(tmp_path, data, name="scene.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def hyperbola_file(tmp_path, suites="all"):
    return write_scene(
        tmp_path,
        {
            "version": 1,
            "scene": {"family": "hyperbola", "n": 0, "seed": 1, "num_samples": 8},
            "suites": suites,
        },
    )


def perturbed_file(tmp_path, epsilon=0.1, seed=5):
    base = quadric_scene_dict(1, seed, num_samples=10)
    base["scene"]["family"] = "perturbed_transversal"
    base["scene"]["params"]["epsilon"] = epsilon
    return write_scene(tmp_path, base, name="perturbed.json")


# ----------------------------------------------------------------------
# verify


def test_verify_hyperbola_passes(tmp_path, capsys):
    code = cmd_verify(hyperbola_file(tmp_path))
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    assert "overall: PASS" in out
    assert "THM_STAU" in out


def test_verify_generated_quadric_passes(tmp_path):
    scene_path = str(tmp_path / "q.json")
    assert cmd_gen_quadric(1, 7, scene_path) == EXIT_PASS
    assert cmd_verify(scene_path) == EXIT_PASS


def test_verify_perturbed_fails_on_metric_battery(tmp_path, capsys):
    code = cmd_verify(perturbed_file(tmp_path))
    out = capsys.readouterr().out
    assert code == EXIT_FAIL
    assert "METRIC" in out
    assert "FAILED" in out
    assert "overall: FAIL" in out


def test_verify_json_report(tmp_path):
    report_path = tmp_path / "report.json"
    code = cmd_verify(hyperbola_file(tmp_path), json_path=str(report_path))
    assert code == EXIT_PASS
    report = json.loads(report_path.read_text())
    assert report["overall"] == "pass"
    assert report["engine_self_test"]["passed"]
    assert report["suites"]["COR_WZORY"]["status"] == "vacuous"
    assert report["scene"]["family"] == "hyperbola"


REPORT_KEYS = {"version", "diagnostic", "engine_self_test", "suites", "samples", "overall", "scene"}
SUITE_KEYS = {
    "theorem_id", "tolerance", "status", "gate", "skip_reasons", "identities", "worst",
    "ok", "vacuous_identities", "signatures", "max_residual", "num_skipped",
}


@pytest.mark.parametrize("no_timing", [False, True])
def test_report_v2_schema(tmp_path, no_timing):
    # Each suite is its TheoremReport: one column entry per sample.
    report_path = tmp_path / "report.json"
    cmd_verify(perturbed_file(tmp_path), json_path=str(report_path), no_timing=no_timing)
    report = json.loads(report_path.read_text())
    assert set(report) == REPORT_KEYS | (set() if no_timing else {"timing"})
    assert report["version"] == 2
    total = report["samples"]["total"]
    assert total == 10
    for name, suite in report["suites"].items():
        assert set(suite) == SUITE_KEYS, name
        assert suite["signatures"] is None
        columns = [suite["skip_reasons"], suite["worst"], suite["ok"], *suite["identities"].values()]
        assert all(len(column) == total for column in columns), name


@pytest.mark.parametrize("where", ["missing_dir/r.json", "."])
def test_unwritable_json_path_exits_2(tmp_path, capsys, where):
    # An I/O error is not a verdict: exit 2, not the traceback exit 1.
    scene = hyperbola_file(tmp_path)
    assert main(["verify", scene, "--json", str(tmp_path / where)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_verify_report_determinism(tmp_path):
    scene_path = str(tmp_path / "q.json")
    cmd_gen_quadric(1, 11, scene_path, num_samples=6)
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    cmd_verify(scene_path, json_path=str(p1), no_timing=True)
    cmd_verify(scene_path, json_path=str(p2), no_timing=True)
    assert p1.read_bytes() == p2.read_bytes()


def test_engine_self_test_is_the_engine_battery(tmp_path, monkeypatch, capsys):
    path = hyperbola_file(tmp_path, suites=["ENGINE"])
    assert cmd_verify(path) == EXIT_INPUT
    assert "ENGINE" in capsys.readouterr().err

    # A NaN structure-equation residual fails the self-test and shows in it.
    real = theorems.residuals_from_data

    def with_nan_ricci(ind, der):
        out = real(ind, der)
        out["ricci"] = np.full_like(out["ricci"], np.nan)
        return out

    monkeypatch.setattr(theorems, "residuals_from_data", with_nan_ricci)
    report_path = tmp_path / "report.json"
    assert cmd_verify(hyperbola_file(tmp_path), json_path=str(report_path)) == EXIT_FAIL
    engine = json.loads(report_path.read_text())["engine_self_test"]
    assert engine["passed"] is False
    assert math.isnan(engine["ricci"]) and engine["gauss"] == 0.0
    assert "ricci nan  [FAIL]" in capsys.readouterr().out


def test_huge_quadric_entries_exit_2(tmp_path, capsys):
    # max|A| ** 4 overflows a float; the singularity test must not.
    quadric = {"n": 1, "P": [[1e200, 0.0], [0.0, -1e200]], "R_skew": [[0.0, 0.0], [0.0, 0.0]]}
    path = write_scene(
        tmp_path,
        {"version": 1, "scene": {"family": "quadric_radial", "n": 1,
                                 "params": {"quadric": quadric}}},
    )
    assert cmd_verify(path) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: $.scene") and "Traceback" not in err


@pytest.mark.parametrize(
    "keys, err",
    [
        (["params", "quadric", "P", 0, 0], "error: $.scene: quadric matrix entries must be finite\n"),
        (["params", "base_point", 0], "error: $.scene: base point does not satisfy x'Ax = 1\n"),
    ],
    ids=["P", "base_point"],
)
def test_overflowing_field_exits_2_without_a_warning(tmp_path, capsys, keys, err):
    # 1e308 is finite, but P + P^T and x'Ax overflow on it; the check that
    # rejects it must come first, with no RuntimeWarning before it.
    data = json.loads((DATA / "quadric_n1.json").read_text(encoding="utf-8"))
    target = data["scene"]
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = 1e308
    assert main(["verify", write_scene(tmp_path, data)]) == EXIT_INPUT
    assert capsys.readouterr().err == err


def test_verify_missing_file():
    assert cmd_verify("/nonexistent/scene.json") == EXIT_INPUT


def test_verify_schema_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert cmd_verify(str(bad)) == EXIT_INPUT
    assert "invalid JSON" in capsys.readouterr().err

    path = write_scene(tmp_path, {"version": 2, "scene": {"family": "hyperbola", "n": 0}})
    assert cmd_verify(path) == EXIT_INPUT
    assert "$.version" in capsys.readouterr().err

    path = write_scene(
        tmp_path,
        {"version": 1, "scene": {"family": "hyperbola", "n": 0},
         "tolerances": {"engine": -1.0}},
    )
    assert cmd_verify(path) == EXIT_INPUT
    assert "tolerances" in capsys.readouterr().err

    path = write_scene(
        tmp_path,
        {"version": 1, "scene": {"family": "hyperbola", "n": 0},
         "suites": ["THM_NOPE"]},
    )
    assert cmd_verify(path) == EXIT_INPUT
    assert "THM_NOPE" in capsys.readouterr().err

    path = write_scene(tmp_path, {"version": 1, "scene": {"family": "torus", "n": 1}})
    assert cmd_verify(path) == EXIT_INPUT
    assert "family" in capsys.readouterr().err


def malformed_base(family):
    if family == "explicit_graph":
        scene = {
            "family": "explicit_graph",
            "n": 1,
            "seed": 2,
            "num_samples": 4,
            "params": {"graph": {"terms": [[[2, 0, 0], 0.5], [[0, 2, 1], -0.5]]}},
        }
        return {"version": 1, "scene": scene}
    data = quadric_scene_dict(1, 5, num_samples=4)
    if family == "perturbed_transversal":
        data["scene"]["family"] = family
        data["scene"]["params"]["epsilon"] = 0.1
        data["scene"]["params"]["direction"] = [1.0, 0.0, 0.0, 0.0]
    return data


NAN, INF = float("nan"), float("inf")

# (base family, keys down to the field, malformed value, field path reported)
MALFORMED = [
    ("quadric_radial", ["seed"], "abc", "$.scene.seed"),
    ("quadric_radial", ["seed"], -1, "$.scene.seed"),
    ("quadric_radial", ["num_samples"], "x", "$.scene.num_samples"),
    ("quadric_radial", ["num_samples"], 2.5, "$.scene.num_samples"),
    # Upper bounds: an unbounded count once reached numpy as an array size.
    ("quadric_radial", ["num_samples"], 10**30, "$.scene.num_samples"),
    ("quadric_radial", ["num_samples"], MAX_NUM_SAMPLES + 1, "$.scene.num_samples"),
    ("quadric_radial", ["n"], MAX_N + 1, "$.scene.n"),
    ("quadric_radial", ["sample_box"], INF, "$.scene.sample_box"),
    ("quadric_radial", ["sample_box"], "0.4", "$.scene.sample_box"),
    ("quadric_radial", ["sample_box"], 1e308, "$.scene.sample_box"),
    ("quadric_radial", ["params", "quadric", "P", 0, 0], NAN, "$.scene.params.quadric.P"),
    ("quadric_radial", ["params", "quadric", "P", 1, 1], INF, "$.scene.params.quadric.P"),
    ("quadric_radial", ["params", "quadric", "R_skew", 0, 1], NAN,
     "$.scene.params.quadric.R_skew"),
    ("quadric_radial", ["params", "base_point", 0], NAN, "$.scene.params.base_point"),
    ("quadric_radial", ["params", "base_point", 2], -INF, "$.scene.params.base_point"),
    ("quadric_radial", ["params", "tangent_basis", 1, 0], INF,
     "$.scene.params.tangent_basis"),
    ("perturbed_transversal", ["params", "direction", 0], NAN, "$.scene.params.direction"),
    ("perturbed_transversal", ["params", "epsilon"], INF, "$.scene.params.epsilon"),
    ("perturbed_transversal", ["params", "epsilon"], "abc", "$.scene.params.epsilon"),
    ("explicit_graph", ["params", "graph", "terms", 0, 0, 1], "a",
     "$.scene.params.graph.terms[0][0]"),
    ("explicit_graph", ["params", "graph", "terms", 0, 0, 1], 1.5,
     "$.scene.params.graph.terms[0][0]"),
    ("explicit_graph", ["params", "graph", "terms", 1, 1], NAN,
     "$.scene.params.graph.terms[1][1]"),
    ("explicit_graph", ["params", "graph", "terms"], 3, "$.scene.params.graph"),
]


@pytest.mark.parametrize(
    "family, keys, value, field",
    MALFORMED,
    ids=[f"{f}-{'.'.join(map(str, k))}={v!r}" for f, k, v, _ in MALFORMED],
)
def test_malformed_field_exits_2_with_field_path(tmp_path, capsys, family, keys, value, field):
    data = malformed_base(family)
    target = data["scene"]
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    assert main(["verify", write_scene(tmp_path, data)]) == EXIT_INPUT
    assert f"error: {field}" in capsys.readouterr().err


@pytest.mark.parametrize("direction", [None, [1.0, 0.0]])
def test_perturbed_n0_exits_2_naming_n(tmp_path, capsys, direction):
    # At n = 0 ker(eta) is {0}, so no J-invariant perturbation exists, with
    # or without a given direction.
    data = quadric_scene_dict(0, 3, num_samples=4)
    data["scene"]["family"] = "perturbed_transversal"
    data["scene"]["params"]["epsilon"] = 0.1
    if direction is not None:
        data["scene"]["params"]["direction"] = direction
    assert main(["verify", write_scene(tmp_path, data)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == "error: $.scene.n: perturbed_transversal scenes require n >= 1\n"


@pytest.mark.parametrize("box", [1e200, 8e307])
def test_huge_sample_box_exits_2_naming_the_box(tmp_path, capsys, box):
    # Far out in the box the chart quality y'Ay overflows: the sample screen
    # rejects every candidate before any np.linalg call, and warns nothing.
    data = quadric_scene_dict(1, 0, num_samples=4)
    data["scene"]["sample_box"] = box
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", write_scene(tmp_path, data)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == "error: $.scene.sample_box: no admissible sample points found in the chart box\n"


@pytest.mark.parametrize("command", [["verify"], ["sweep", "--values", "0.1"]])
def test_non_utf8_scene_file_exits_2_naming_the_path(tmp_path, capsys, command):
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff\xfe{"version": 1}')
    code = main([command[0], str(path), *command[1:]])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert "Traceback" not in err
    assert err.startswith(f"error: {path}: ")


def test_scene_polynomial_cost_does_not_grow_with_its_exponent(tmp_path, capsys):
    # A one-term n = 0 graph u^e: its jet takes about 2 log2(e) products.
    codes = []
    for e in (1000, 10**9):
        data = {
            "version": 1,
            "scene": {"family": "explicit_graph", "n": 0,
                      "params": {"graph": {"terms": [[[e], 1.0]]}}},
        }
        path = write_scene(tmp_path, data, name=f"power_{e}.json")
        t0 = time.perf_counter()
        codes.append(main(["verify", path]))
        elapsed = time.perf_counter() - t0
    capsys.readouterr()
    assert elapsed < 2.0
    assert codes[0] == codes[1]


def test_malformed_bases_are_valid(tmp_path):
    for family in ("quadric_radial", "perturbed_transversal", "explicit_graph"):
        load_scene_file(write_scene(tmp_path, malformed_base(family), name=f"{family}.json"))


def test_verify_degenerate_exit(tmp_path):
    # A ruled graph with identically singular Hessian: every sample loses the
    # suites that need h^{-1}, pushing the skip fraction past 10%.
    path = write_scene(
        tmp_path,
        {
            "version": 1,
            "scene": {
                "family": "explicit_graph",
                "n": 1,
                "seed": 2,
                "num_samples": 6,
                "params": {"graph": {"terms": [[[1, 1, 0], 1.0]]}},
            },
            "suites": ["THM_EQUIV"],
        },
    )
    assert cmd_verify(path, diagnostic=True) == EXIT_DEGENERATE


def test_verify_diagnostic_runs_gated_suites(tmp_path):
    report_path = tmp_path / "r.json"
    code = cmd_verify(
        perturbed_file(tmp_path), json_path=str(report_path), diagnostic=True
    )
    assert code == EXIT_FAIL
    report = json.loads(report_path.read_text())
    assert report["suites"]["THM_STAU"]["status"] == "failed"
    assert report["suites"]["THM_STAU"]["num_skipped"] == 0


def test_gated_suites_skip_without_diagnostic(tmp_path):
    report_path = tmp_path / "r.json"
    cmd_verify(perturbed_file(tmp_path), json_path=str(report_path))
    report = json.loads(report_path.read_text())
    assert report["suites"]["THM_STAU"]["status"] == "skipped"
    assert report["suites"]["THM_STAU"]["skip_reasons"][0].startswith("gate:")


def test_unverifiable_selected_suite_is_not_a_pass(tmp_path):
    # Selecting only a gated suite on a scene that fails its hypothesis must
    # not return exit 0: nothing was verified.
    path = perturbed_file(tmp_path, seed=6)
    data = json.loads(open(path).read())
    data["suites"] = ["LEM_EST"]
    path = write_scene(tmp_path, data, name="gated_only.json")
    assert cmd_verify(path) == EXIT_FAIL


# ----------------------------------------------------------------------
# gen-quadric


def test_gen_quadric_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cmd_gen_quadric(1, 7, str(a)) == EXIT_PASS
    assert cmd_gen_quadric(1, 7, str(b)) == EXIT_PASS
    assert a.read_bytes() == b.read_bytes()


def test_gen_quadric_n0_forced_zero_skew(tmp_path):
    path = tmp_path / "n0.json"
    assert cmd_gen_quadric(0, 1, str(path)) == EXIT_PASS
    data = json.loads(path.read_text())
    assert data["scene"]["params"]["quadric"]["R_skew"] == [[0.0]]


def test_gen_quadric_negative_n(tmp_path):
    assert cmd_gen_quadric(-1, 0, str(tmp_path / "x.json")) == EXIT_INPUT


@pytest.mark.parametrize(
    "option, value",
    [
        ("--num-samples", "0"),
        ("--num-samples", "-5"),
        ("--sample-box", "-1"),
        ("--sample-box", "nan"),
        ("--sample-box", "inf"),
        ("--seed", "-1"),
        ("--num-samples", str(10**30)),
        ("--num-samples", str(MAX_NUM_SAMPLES + 1)),
        ("--n", str(MAX_N + 1)),
    ],
)
def test_gen_quadric_rejects_what_verify_rejects(tmp_path, capsys, option, value):
    out = tmp_path / "bad.json"
    argv = ["gen-quadric", "--n", "1", "--seed", "0", "--out", str(out), option, value]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option}: ") and err.count("\n") == 1
    assert not out.exists()


def test_gen_then_verify_several_seeds(tmp_path):
    for seed in (0, 1, 2):
        path = str(tmp_path / f"s{seed}.json")
        assert cmd_gen_quadric(seed % 2, seed, path, num_samples=6) == EXIT_PASS
        assert cmd_verify(path) == EXIT_PASS


def test_loaded_scene_round_trip(tmp_path):
    scene_path = str(tmp_path / "q.json")
    cmd_gen_quadric(2, 3, scene_path, num_samples=4)
    scene, suites, raw = load_scene_file(scene_path)
    assert scene.family == "quadric_radial"
    assert scene.n == 2
    assert len(scene.samples) == 4
    assert suites == list(
        __import__("parageom.theorems", fromlist=["SCENE_SUITES"]).SCENE_SUITES
    )
    spec = scene.params["quadric"]
    np.testing.assert_allclose(
        np.asarray(raw["scene"]["params"]["quadric"]["P"]), spec.P
    )


# ----------------------------------------------------------------------
# sweep


def test_sweep_monotone_metric_column(tmp_path, capsys):
    path = perturbed_file(tmp_path, seed=9)
    code = cmd_sweep(path, [0.1, 0.01, 0.001])
    out = capsys.readouterr().out
    assert code == EXIT_PASS
    rows = [line.split() for line in out.strip().splitlines()[1:]]
    metrics = [float(r[1]) for r in rows]
    assert metrics[0] > 5 * metrics[1] > 25 * metrics[2]


def test_sweep_epsilon_zero_matches_plain_quadric(tmp_path):
    path = perturbed_file(tmp_path, seed=10)
    scene, _, _ = load_scene_file(path)
    from parageom.theorems import analyze_scene

    swept_code = cmd_sweep(path, [0.0])
    assert swept_code == EXIT_PASS
    from parageom.hypersurface import quadric_scene

    plain = quadric_scene(
        scene.params["quadric"],
        base_point=scene.params["base_point"],
        basis=scene.params["basis"],
        samples=scene.samples,
    )
    batch = analyze_scene(plain)
    for i, fault in enumerate(batch.pd.faults):
        assert fault is None
        assert np.max(np.abs(batch.metric[i])) <= 1e-8


def test_sweep_rows_are_bounded_like_samples(capsys):
    # A sweep row costs what a verify sample costs: values x samples is
    # bounded by MAX_NUM_SAMPLES, checked before any analysis.
    path = str(DATA / "perturbed_n1.json")
    assert len(load_scene_file(path)[0].samples) * 25 == MAX_NUM_SAMPLES
    assert main(["sweep", path, "--values", ",".join(["0.01"] * 26)]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --values: ") and err.count("\n") == 1
    assert main(["sweep", path, "--values", ",".join(["0.01"] * 25)]) == EXIT_PASS


def test_sweep_empty_values(tmp_path):
    assert cmd_sweep(perturbed_file(tmp_path), []) == EXIT_INPUT


def test_sweep_wrong_family(tmp_path):
    assert cmd_sweep(hyperbola_file(tmp_path), [0.1]) == EXIT_INPUT


# ----------------------------------------------------------------------
# main entry


def test_main_verify(tmp_path):
    assert main(["verify", hyperbola_file(tmp_path)]) == EXIT_PASS


def test_main_gen_and_sweep(tmp_path):
    out = str(tmp_path / "g.json")
    assert main(["gen-quadric", "--n", "0", "--seed", "4", "--out", out]) == EXIT_PASS
    assert main(["sweep", perturbed_file(tmp_path), "--values", "0.1,0.01"]) == EXIT_PASS
    assert main(["sweep", perturbed_file(tmp_path), "--values", "oops"]) == EXIT_INPUT
    assert main(["sweep", perturbed_file(tmp_path), "--values", "0.1,nan"]) == EXIT_INPUT


def test_parser_is_built_once_and_survives_a_usage_error(tmp_path, capsys):
    from parageom import cli

    cli._parser.cache_clear()
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == EXIT_INPUT
    assert main(["verify", hyperbola_file(tmp_path)]) == EXIT_PASS
    assert cli._parser.cache_info().misses == 1
