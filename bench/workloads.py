"""Workloads of the parageom benchmark: scene files generated from a seed,
requests through the public entry point ``parageom.cli.main``, and the
verdict oracle every request is checked against.
"""

from __future__ import annotations

import io
import json
import math
import os
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from time import perf_counter

from spans import SUITES

# Decreasing epsilon list of every sweep request.  The metric residual of a
# perturbed transversal grows linearly with epsilon, so the first value lies
# well above the theorem tolerance and the last well below it.
EPSILONS = (0.1, 0.01, 1e-3, 1e-4, 1e-6, 1e-8)
# Perturbation of the perturbed_transversal scenes that ``verify`` sees.
VERIFY_EPSILON = 0.1


@dataclass(frozen=True)
class Kind:
    """One kind of scene file in a workload, and how many of them."""

    family: str
    n: int
    num_samples: int
    scenes: int


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "verify" or "sweep"
    kinds: tuple
    # Spans the per-layer metrics read that this workload never calls.
    idle_spans: tuple = ()

    def tiny(self) -> "Workload":
        """The same workload with one two-sample scene per kind."""
        return replace(
            self, kinds=tuple(replace(k, num_samples=2, scenes=1) for k in self.kinds)
        )


# Within a workload the kinds differ in cost per request.  Unequal scene
# counts keep the median request, and the tail, inside one kind's cluster of
# request times instead of on the edge between two clusters, where they
# would jump from run to run.
WORKLOADS = {
    # Tiny per-sample arrays, so Python dispatch outweighs the jet kernels:
    # traced on the seed code, theorems+paracontact self time is 26% of a
    # request and the kernels 23% (the whole jets layer 36%).  Passing,
    # failing and gate-skipped batteries are mixed, and the graph family
    # exercises polynomial jet evaluation.
    "lown_verify": Workload(
        "lown_verify",
        "verify",
        (
            Kind("hyperbola", 0, 20, scenes=2),
            Kind("quadric_radial", 1, 20, scenes=4),
            Kind("perturbed_transversal", 1, 20, scenes=3),
            Kind("explicit_graph", 1, 20, scenes=3),
        ),
    ),
    # m = 7 and 9 chart variables (120- and 220-coefficient jets): the jet
    # kernels inside the frame decompositions dominate.  The n = 4 scenes
    # take about as much of the run as the n = 3 ones.
    "highn_verify": Workload(
        "highn_verify",
        "verify",
        (
            Kind("quadric_radial", 3, 8, scenes=4),
            Kind("quadric_radial", 4, 4, scenes=2),
        ),
    ),
    # Samples are drawn once per request and analysed once per epsilon, with
    # only METRIC and THM_STAU and the gates off.  An n = 2 request takes
    # about twice as long as an n = 1 one, so the tail lies in their cluster.
    "eps_sweep": Workload(
        "eps_sweep",
        "sweep",
        (
            Kind("perturbed_transversal", 1, 6, scenes=4),
            Kind("perturbed_transversal", 2, 4, scenes=2),
        ),
        idle_spans=(
            "paracontact.levi_civita",
            "paracontact.normality_residuals",
            "paracontact.sasakian_residual",
            *(f"theorems.run_suite.{s}" for s in SUITES if s not in ("METRIC", "THM_STAU")),
        ),
    ),
}


@dataclass
class Scene:
    path: str
    kind: Kind
    theorem_tol: float
    # Sample points the program draws for the scene; read at set-up for
    # sweep scenes only, where no report gives the count.
    samples: int = 0


@dataclass
class Outcome:
    wall_s: float
    # Usable samples analysed: in a sweep, the scene's samples once per
    # epsilon row with a finite metric.
    samples: int
    report_bytes: int
    problems: list


# ----------------------------------------------------------------------
# scene generation


def generate(program, workload: Workload, seed: int, workdir: str) -> list:
    """Write the workload's scene files for ``seed``; returns them in request
    order, the kinds interleaved."""
    scenes = []
    for k in range(max(kind.scenes for kind in workload.kinds)):
        for j, kind in enumerate(workload.kinds):
            if k >= kind.scenes:
                continue
            scene_seed = seed * 1000 + k * len(workload.kinds) + j
            path = os.path.join(workdir, f"{kind.family}_n{kind.n}_{scene_seed}.json")
            data = _scene_data(program, kind, scene_seed, path)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            tol = data.get("tolerances", {}).get(
                "theorem", program.hypersurface.DEFAULT_TOLERANCES["theorem"]
            )
            scene = Scene(path, kind, float(tol))
            if workload.command == "sweep":
                scene.samples = len(program.cli.load_scene_file(path)[0].samples)
            scenes.append(scene)
    return scenes


def _scene_data(program, kind: Kind, seed: int, path: str) -> dict:
    if kind.family == "hyperbola":
        scene = {"family": "hyperbola", "n": 0, "seed": seed, "num_samples": kind.num_samples}
        return {"version": 1, "scene": scene, "suites": "all"}
    if kind.family == "explicit_graph":
        generated = program.hypersurface.random_graph_scene(
            kind.n, seed, num_samples=kind.num_samples
        )
        params = {
            "graph": generated.params["graph"].to_dict(),
            "transversal": [p.to_dict() for p in generated.params["transversal"]],
        }
        scene = {
            "family": "explicit_graph",
            "n": kind.n,
            "seed": seed,
            "num_samples": kind.num_samples,
            "params": params,
        }
        return {"version": 1, "scene": scene, "suites": "all"}
    argv = ["gen-quadric", "--n", str(kind.n), "--seed", str(seed), "--out", path,
            "--num-samples", str(kind.num_samples)]
    with redirect_stdout(io.StringIO()):
        code = program.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"gen-quadric exited {code} for n={kind.n} seed={seed}")
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if kind.family == "perturbed_transversal":
        data["scene"]["family"] = "perturbed_transversal"
        data["scene"]["params"]["epsilon"] = VERIFY_EPSILON
    return data


# ----------------------------------------------------------------------
# requests


def request(program, workload: Workload, scene: Scene, report_path: str) -> Outcome:
    """Send one request through ``parageom.cli.main`` and check its verdicts.

    Only the call itself is timed; its stdout is captured for the oracle.
    """
    if workload.command == "verify":
        argv = ["verify", scene.path, "--json", report_path]
        if os.path.exists(report_path):
            os.remove(report_path)
    else:
        argv = ["sweep", scene.path, "--values", ",".join(repr(e) for e in EPSILONS)]
    out = io.StringIO()
    wall = 0.0
    try:
        with redirect_stdout(out):
            t0 = perf_counter()
            try:
                code = program.cli.main(argv)
            finally:
                wall = perf_counter() - t0
    except (Exception, SystemExit):
        return Outcome(wall, 0, 0, [f"{scene.path}: raised\n{traceback.format_exc()}"])

    if workload.command == "sweep":
        text = out.getvalue()
        problems = check_sweep(code, text, scene.theorem_tol)
        try:
            # A row whose metric is not finite had no usable sample.
            usable = sum(math.isfinite(r[1]) for r in parse_sweep(text))
        except ValueError:
            usable = 0
        return Outcome(wall, scene.samples * usable, 0,
                       [f"{scene.path}: {p}" for p in problems])
    try:
        with open(report_path, encoding="utf-8") as fh:
            text = fh.read()
        report = json.loads(text)
    except (OSError, ValueError) as exc:
        return Outcome(wall, 0, 0, [f"{scene.path}: no readable report ({exc})"])
    problems = check_verify(scene.kind.family, code, report)
    samples = report["samples"]["total"] - report["samples"]["degenerate"]
    return Outcome(wall, samples, len(text.encode("utf-8")),
                   [f"{scene.path}: {p}" for p in problems])


# ----------------------------------------------------------------------
# verdict oracle

_TANGENT_GATED = ("TW_WZORY", "COR_WZORY", "PROP_NORMAL")
_METRIC_GATED = ("LEM_EST", "LEM_CUBIC", "THM_STAU", "THM_EQUIV", "THM_QUADRIC_FWD")


def _statuses(default: str, **overrides) -> dict:
    out = {s: default for s in SUITES}
    out.update(overrides)
    return out


# Expected (exit code, suite statuses) per family, from the mathematics:
# * a centered quadric anticommuting with J, with the position transversal,
#   carries a metric induced structure, so every battery holds;
# * the hyperbola is that case at n = 0, where ker(eta) is trivial and the
#   batteries quantified over it are vacuous;
# * a J-tangent but non-metric transversal (C = x + eps W) fails METRIC, keeps
#   the identities valid for any J-tangent transversal, and the metric gate
#   skips the batteries that assume a metric structure;
# * a generic graph transversal is not J-tangent, so METRIC fails and every
#   gated battery is skipped.
EXPECTED = {
    "quadric_radial": (0, _statuses("passed")),
    "hyperbola": (0, _statuses("passed", COR_WZORY="vacuous", LEM_CUBIC="vacuous")),
    "perturbed_transversal": (
        1,
        {
            "METRIC": "failed",
            **{s: "passed" for s in _TANGENT_GATED},
            **{s: "skipped" for s in _METRIC_GATED},
        },
    ),
    "explicit_graph": (1, _statuses("skipped", METRIC="failed")),
}


def check_verify(family: str, code: int, report: dict) -> list:
    """Mismatches between a verify report and the expected verdicts."""
    problems = []
    want_code, want = EXPECTED[family]
    if code != want_code:
        problems.append(f"exit code {code}, expected {want_code}")
    if not report.get("engine_self_test", {}).get("passed"):
        problems.append("engine self-test failed")
    got = {k: v.get("status") for k, v in report.get("suites", {}).items()}
    if got != want:
        diff = {s: (got.get(s), want.get(s)) for s in set(got) | set(want)
                if got.get(s) != want.get(s)}
        problems.append(f"suite status (got, expected): {diff}")
    return problems


def parse_sweep(text: str) -> list:
    """Rows (epsilon, metric, s_plus_id, tau) of a sweep table."""
    rows = []
    for line in text.splitlines()[1:]:
        fields = line.split()
        if len(fields) == 4:
            rows.append(tuple(float(f) for f in fields))
    return rows


def check_sweep(code: int, text: str, theorem_tol: float) -> list:
    """Mismatches between a sweep table and the expected metric column: above
    the theorem tolerance at the largest epsilon, below it at the smallest,
    non-increasing in between."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    try:
        rows = parse_sweep(text)
    except ValueError as exc:
        return problems + [f"unparsable sweep table ({exc})"]
    if len(rows) != len(EPSILONS) or any(
        not math.isclose(r[0], e, rel_tol=1e-3) for r, e in zip(rows, EPSILONS)
    ):
        return problems + [f"sweep rows {[r[0] for r in rows]} != {list(EPSILONS)}"]
    metric = [r[1] for r in rows]
    if not all(math.isfinite(v) for v in metric):
        problems.append(f"non-finite metric column {metric}")
    elif not metric[0] > theorem_tol:
        problems.append(f"metric {metric[0]:.3g} at the largest epsilon is within tolerance")
    elif not metric[-1] < theorem_tol:
        problems.append(f"metric {metric[-1]:.3g} at the smallest epsilon exceeds tolerance")
    elif any(b > a for a, b in zip(metric, metric[1:])):
        problems.append(f"metric column increases: {metric}")
    return problems
