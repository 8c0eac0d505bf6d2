"""Command-line entry point.

Three subcommands:

* ``verify <scene.json>``   — run the engine self-test plus the selected
  theorem suites on a scene file; human summary on stdout, full JSON report
  with ``--json PATH``.  ``--diagnostic`` disables the theorem-hypothesis
  gates, ``--no-timing`` strips timings for byte-reproducible reports.
* ``gen-quadric``           — emit a complete, deterministic quadric scene
  file for (n, seed).
* ``sweep <scene.json>``    — re-verify a perturbed scene over a list of
  epsilon values (gates off) and print a residual table.

Exit codes: 0 all selected suites pass, 1 a suite or the engine self-test
failed, 2 unreadable/invalid input, 3 numeric degeneracy (more than 10% of
samples unusable, or no admissible base point).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time

import numpy as np

from .errors import BasePointNotFound, NoAdmissibleSamples, ParageomError, ShapeError
from .hypersurface import (
    DEFAULT_NUM_SAMPLES,
    DEFAULT_SAMPLE_BOX,
    DEFAULT_TOLERANCES,
    ImmersionScene,
    Polynomial,
    find_base_point,
    graph_scene,
    hyperbola_scene,
    perturbed_scene,
    quadric_scene,
    tangent_basis,
)
from .paracomplex import QuadricSpec, random_quadric_spec
from .theorems import SCENE_SUITES, analyze_scene, run_suite

SCENE_VERSION = 1
REPORT_VERSION = 1
# Fraction of samples that may be lost to numeric degeneracy before the whole
# run is declared degenerate (exit 3).
MAX_SKIP_FRACTION = 0.10

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_DEGENERATE = 3

# Identities of the engine self-test (the ENGINE battery), in report order.
_ENGINE_IDENTITIES = ("gauss", "codazzi_h", "codazzi_s", "ricci")


class SceneFileError(ValueError):
    """Scene file failed schema validation; message carries the field path."""


# ----------------------------------------------------------------------
# scene file schema


def _number(value, path, integer=False):
    """A JSON number at ``path``: an integer, or any number in float range."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise SceneFileError(f"{path}: expected {'an integer' if integer else 'a number'}")
    if not integer and not abs(value) <= sys.float_info.max:
        raise SceneFileError(f"{path}: expected a finite number")
    return value if integer else float(value)


def _need(mapping, key, kind, path):
    if key not in mapping:
        raise SceneFileError(f"{path}: missing required field {key!r}")
    value = mapping[key]
    if kind in (int, float):
        return _number(value, f"{path}.{key}", integer=kind is int)
    if not isinstance(value, kind):
        raise SceneFileError(f"{path}.{key}: expected {kind.__name__}")
    return value


def _array(data, path, shape):
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError):
        raise SceneFileError(f"{path}: expected a numeric nested array") from None
    if arr.shape != shape:
        raise SceneFileError(f"{path}: expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise SceneFileError(f"{path}: entries must be finite")
    return arr


def _polynomial(data, m, path):
    if not isinstance(data, dict) or not isinstance(data.get("terms"), list):
        raise SceneFileError(f"{path}: expected an object with a 'terms' list")
    terms = []
    for k, term in enumerate(data["terms"]):
        where = f"{path}.terms[{k}]"
        if (
            not isinstance(term, list)
            or len(term) != 2
            or not isinstance(term[0], list)
        ):
            raise SceneFileError(f"{where}: expected [[exponents], coeff]")
        exponents = tuple(_number(a, f"{where}[0]", integer=True) for a in term[0])
        terms.append((exponents, _number(term[1], f"{where}[1]")))
    try:
        return Polynomial(m, terms)
    except ShapeError as exc:
        raise SceneFileError(f"{path}: {exc}") from None


def load_scene_file(path: str):
    """Parse and validate a scene file; returns (scene, suites, raw dict)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SceneFileError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise SceneFileError(f"{path}: top level must be an object")
    version = _need(raw, "version", int, "$")
    if version != SCENE_VERSION:
        raise SceneFileError(f"$.version: expected {SCENE_VERSION}, got {version}")

    tolerances = dict(DEFAULT_TOLERANCES)
    if "tolerances" in raw:
        tols = _need(raw, "tolerances", dict, "$")
        for key in tols:
            if key not in ("engine", "theorem"):
                raise SceneFileError(f"$.tolerances.{key}: unknown tolerance")
            tolerances[key] = _need(tols, key, float, "$.tolerances")
    if any(t <= 0 for t in tolerances.values()):
        raise SceneFileError("$.tolerances: tolerances must be positive")

    suites = raw.get("suites", "all")
    if suites == "all":
        suites = list(SCENE_SUITES)
    elif isinstance(suites, list):
        for s in suites:
            if s not in SCENE_SUITES:
                raise SceneFileError(
                    f"$.suites: unknown suite {s!r} (choose from {', '.join(SCENE_SUITES)})"
                )
    else:
        raise SceneFileError("$.suites: expected 'all' or a list of suite names")

    sdict = _need(raw, "scene", dict, "$")
    family = _need(sdict, "family", str, "$.scene")
    n = _need(sdict, "n", int, "$.scene")
    if n < 0:
        raise SceneFileError("$.scene.n: must be >= 0")
    seed = _number(sdict.get("seed", 0), "$.scene.seed", integer=True)
    if seed < 0:
        raise SceneFileError("$.scene.seed: must be >= 0")
    num_samples = _number(
        sdict.get("num_samples", DEFAULT_NUM_SAMPLES), "$.scene.num_samples", integer=True
    )
    if num_samples < 1:
        raise SceneFileError("$.scene.num_samples: must be >= 1")
    box = _number(sdict.get("sample_box", DEFAULT_SAMPLE_BOX), "$.scene.sample_box")
    if box <= 0:
        raise SceneFileError("$.scene.sample_box: must be positive")
    if box > sys.float_info.max / 2:
        # The box [-box, box] must have a finite width to be sampled.
        raise SceneFileError(f"$.scene.sample_box: must be at most {sys.float_info.max / 2:.6g}")
    params = sdict.get("params", {})
    if not isinstance(params, dict):
        raise SceneFileError("$.scene.params: expected an object")

    common = dict(
        seed=seed, num_samples=num_samples, sample_box=box, tolerances=tolerances
    )
    try:
        scene = _build_scene(family, n, params, common)
    except NoAdmissibleSamples as exc:
        raise SceneFileError(f"$.scene.sample_box: {exc}") from None
    except (ParageomError, np.linalg.LinAlgError) as exc:
        raise SceneFileError(f"$.scene: {exc}") from None
    return scene, suites, raw


def _build_scene(family, n, params, common) -> ImmersionScene:
    m, dim = 2 * n + 1, 2 * n + 2
    if family == "hyperbola":
        if n != 0:
            raise SceneFileError("$.scene.n: hyperbola scenes require n = 0")
        return hyperbola_scene(**common)

    if family in ("quadric_radial", "perturbed_transversal"):
        qd = params.get("quadric")
        if not isinstance(qd, dict):
            raise SceneFileError("$.scene.params.quadric: expected an object")
        spec = QuadricSpec(
            n=n,
            P=_array(qd.get("P"), "$.scene.params.quadric.P", (n + 1, n + 1)),
            R_skew=_array(qd.get("R_skew"), "$.scene.params.quadric.R_skew", (n + 1, n + 1)),
        )
        kw = dict(common)
        if "base_point" in params:
            kw["base_point"] = _array(params["base_point"], "$.scene.params.base_point", (dim,))
        if "tangent_basis" in params:
            kw["basis"] = _array(params["tangent_basis"], "$.scene.params.tangent_basis", (m, dim))
        if family == "quadric_radial":
            return quadric_scene(spec, **kw)
        if "epsilon" not in params:
            raise SceneFileError("$.scene.params.epsilon: required for perturbed scenes")
        epsilon = _number(params["epsilon"], "$.scene.params.epsilon")
        if "direction" in params:
            kw["direction"] = _array(params["direction"], "$.scene.params.direction", (dim,))
        return perturbed_scene(spec, epsilon, **kw)

    if family == "explicit_graph":
        graph = _polynomial(params.get("graph"), m, "$.scene.params.graph")
        transversal = None
        if "transversal" in params:
            tlist = params["transversal"]
            if not isinstance(tlist, list) or len(tlist) != dim:
                raise SceneFileError(
                    f"$.scene.params.transversal: expected {dim} polynomials"
                )
            transversal = [
                _polynomial(t, m, f"$.scene.params.transversal[{k}]")
                for k, t in enumerate(tlist)
            ]
        return graph_scene(graph, transversal, **common)

    raise SceneFileError(f"$.scene.family: unknown family {family!r}")


# ----------------------------------------------------------------------
# verification runs


def _identity_max(suite: dict, name: str, default: float) -> float:
    """Max of one identity over a suite report's scored samples (a NaN
    shows), or ``default`` when every sample was skipped."""
    values = [s["identities"][name] for s in suite["per_sample"] if not s["skipped"]]
    return float(np.max(values)) if values else default


def run_verification(scene: ImmersionScene, suites, diagnostic=False, timing=True):
    """Run the engine self-test (the ENGINE battery) and the selected suites;
    returns (report dict, exit code)."""
    analyses = analyze_scene(scene)
    total = len(scene.samples)
    engine_report = run_suite(scene, "ENGINE", analyses=analyses)
    engine_suite = engine_report.to_dict()
    engine = {k: _identity_max(engine_suite, k, math.inf) for k in _ENGINE_IDENTITIES}
    engine["tolerance"] = engine_report.tolerance
    engine["passed"] = engine_report.status == "passed"
    degenerate = set(engine_report.degenerate_indices())

    suite_reports = {}
    timings = {}
    for suite in suites:
        t0 = time.perf_counter()
        report = run_suite(scene, suite, diagnostic=diagnostic, analyses=analyses)
        timings[suite] = time.perf_counter() - t0
        suite_reports[suite] = report
        degenerate.update(report.degenerate_indices())

    skip_fraction = len(degenerate) / total if total else 1.0
    # A fully gate-skipped suite was selected but could not be verified, so
    # it cannot contribute a pass.
    failed = (not engine["passed"]) or any(
        r.status in ("failed", "skipped") for r in suite_reports.values()
    )
    overall = "fail" if failed else "pass"
    if skip_fraction > MAX_SKIP_FRACTION:
        overall = "degenerate"

    report = {
        "version": REPORT_VERSION,
        "diagnostic": diagnostic,
        "engine_self_test": engine,
        "suites": {k: v.to_dict() for k, v in suite_reports.items()},
        "samples": {
            "total": total,
            "degenerate": len(degenerate),
            "skip_fraction": skip_fraction,
        },
        "overall": overall,
    }
    if timing:
        report["timing"] = {k: round(v, 6) for k, v in timings.items()}
    code = {
        "pass": EXIT_PASS,
        "fail": EXIT_FAIL,
        "degenerate": EXIT_DEGENERATE,
    }[overall]
    return report, code


def _print_summary(scene, report):
    s = report["samples"]
    print(
        f"scene: {scene.family} n={scene.n} "
        f"({s['total']} samples, {s['degenerate']} degenerate)"
    )
    e = report["engine_self_test"]
    maxima = "  ".join(f"{k} {e[k]:.2e}" for k in _ENGINE_IDENTITIES)
    print(f"engine self-test: {maxima}  [{'PASS' if e['passed'] else 'FAIL'}]")
    for name, rep in report["suites"].items():
        status = rep["status"].upper()
        print(
            f"{name:<16} max {rep['max_residual']:.2e}  "
            f"skips {rep['num_skipped']:>2}  [{status}]"
        )
    print(f"overall: {report['overall'].upper()}")


def cmd_verify(path, json_path=None, diagnostic=False, no_timing=False) -> int:
    try:
        scene, suites, raw = load_scene_file(path)
    except (OSError, SceneFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report, code = run_verification(
        scene, suites, diagnostic=diagnostic, timing=not no_timing
    )
    report["scene"] = raw["scene"]
    _print_summary(scene, report)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            # Without ``indent``, json takes its C encoder.
            fh.write(json.dumps(report, sort_keys=True) + "\n")
    return code


# ----------------------------------------------------------------------
# scene generation


def quadric_scene_dict(n: int, seed: int, num_samples=DEFAULT_NUM_SAMPLES,
                       sample_box=DEFAULT_SAMPLE_BOX) -> dict:
    """Deterministic scene-file dict for a random quadric with C = x."""
    spec = random_quadric_spec(n, seed)
    x0 = find_base_point(spec, np.random.default_rng([seed, 1]))
    basis = tangent_basis(spec, x0)
    return {
        "version": SCENE_VERSION,
        "scene": {
            "family": "quadric_radial",
            "n": n,
            "seed": seed,
            "num_samples": num_samples,
            "sample_box": sample_box,
            "params": {
                "quadric": spec.to_dict(),
                "base_point": x0.tolist(),
                "tangent_basis": basis.tolist(),
            },
        },
        "tolerances": dict(DEFAULT_TOLERANCES),
        "suites": "all",
    }


def cmd_gen_quadric(n, seed, out, num_samples=DEFAULT_NUM_SAMPLES,
                    sample_box=DEFAULT_SAMPLE_BOX) -> int:
    if n < 0:
        print("error: --n must be >= 0", file=sys.stderr)
        return EXIT_INPUT
    try:
        data = quadric_scene_dict(n, seed, num_samples, sample_box)
    except BasePointNotFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(f"wrote {out}")
    return EXIT_PASS


# ----------------------------------------------------------------------
# parameter sweeps


def cmd_sweep(path, values=()) -> int:
    if not values:
        print("error: empty sweep value list", file=sys.stderr)
        return EXIT_INPUT
    try:
        scene, _, _ = load_scene_file(path)
    except (OSError, SceneFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if scene.family != "perturbed_transversal":
        print(
            "error: sweep over epsilon needs a perturbed_transversal scene",
            file=sys.stderr,
        )
        return EXIT_INPUT

    print(f"{'epsilon':>10}  {'metric':>12}  {'s_plus_id':>12}  {'tau':>12}")
    worst_code = EXIT_PASS
    for eps in values:
        swept = dataclasses.replace(scene, params={**scene.params, "epsilon": float(eps)})
        report, code = run_verification(
            swept, ["METRIC", "THM_STAU"], diagnostic=True, timing=False
        )
        if code == EXIT_DEGENERATE:
            worst_code = EXIT_DEGENERATE
        metric = _identity_max(report["suites"]["METRIC"], "metric", math.nan)
        stau = report["suites"]["THM_STAU"]
        s_plus = _identity_max(stau, "s_plus_id", math.nan)
        tau = _identity_max(stau, "tau_norm", math.nan)
        print(f"{eps:>10.4g}  {metric:>12.4e}  {s_plus:>12.4e}  {tau:>12.4e}")
    return worst_code


# ----------------------------------------------------------------------
# argument parsing


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept."""
    parser = argparse.ArgumentParser(
        prog="parageom",
        description="Verify induced almost paracontact structures on affine "
        "hypersurfaces at sampled chart points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run suites from a scene file")
    p_verify.add_argument("scene", help="scene file (JSON, version 1)")
    p_verify.add_argument("--json", metavar="PATH", help="write the full JSON report")
    p_verify.add_argument(
        "--diagnostic", action="store_true",
        help="disable theorem-hypothesis gates (negative testing)",
    )
    p_verify.add_argument(
        "--no-timing", action="store_true", help="omit timings from the JSON report"
    )

    p_gen = sub.add_parser("gen-quadric", help="emit a random quadric scene file")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--num-samples", type=int, default=DEFAULT_NUM_SAMPLES)
    p_gen.add_argument("--sample-box", type=float, default=DEFAULT_SAMPLE_BOX)

    p_sweep = sub.add_parser("sweep", help="sweep a perturbed scene's epsilon, gates off")
    p_sweep.add_argument("scene")
    p_sweep.add_argument(
        "--values", required=True,
        help="comma-separated epsilon values, e.g. 0.1,0.01,0.001",
    )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "verify":
        return cmd_verify(
            args.scene,
            json_path=args.json,
            diagnostic=args.diagnostic,
            no_timing=args.no_timing,
        )
    if args.command == "gen-quadric":
        return cmd_gen_quadric(
            args.n, args.seed, args.out, args.num_samples, args.sample_box
        )
    values = [v for v in args.values.split(",") if v.strip()]
    try:
        values = [float(v) for v in values]
        if not all(abs(v) <= sys.float_info.max for v in values):
            raise ValueError
    except ValueError:
        print(f"error: bad sweep values {args.values!r}", file=sys.stderr)
        return EXIT_INPUT
    return cmd_sweep(args.scene, values)


if __name__ == "__main__":
    raise SystemExit(main())
