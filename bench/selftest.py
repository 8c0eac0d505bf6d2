"""Fast self-test of the benchmark (a few seconds).

Usage, from the root of a checkout::

    python3 bench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that each
run is correct and emits exactly the metrics of ``BENCHMARK.json``, each a
finite number with the declared unit.  It also checks that the verdict
oracle rejects wrong verdicts, that a traced run flags metric spans it never
recorded, and that the benchmark exits non-zero, without a result line, when
the program's sources are missing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import run
import workloads

ROOT = run.ROOT
BENCH = Path(__file__).resolve().parent


def check_run(spec: dict, workload, trace: bool) -> list:
    result, _, problems = run.run(workload.tiny(), seed=0, seconds=0.5, trace=trace, setups=1)
    where = f"{workload.name} trace={int(trace)}"
    errors = [f"{where}: {p}" for p in problems]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = result["metrics"]
    if set(emitted) != set(declared):
        errors.append(f"{where}: missing {sorted(set(declared) - set(emitted))}, "
                      f"undeclared {sorted(set(emitted) - set(declared))}")
    for name, m in emitted.items():
        if m.get("unit") != declared.get(name):
            errors.append(f"{where}: {name} unit {m.get('unit')!r} != {declared.get(name)!r}")
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            errors.append(f"{where}: {name} value {m.get('value')!r}")
    return errors


def check_oracle() -> list:
    """The oracle must flag a report or sweep table that breaks the
    expectations, not only accept correct ones."""
    errors = []
    passing = {"engine_self_test": {"passed": True},
               "suites": {s: {"status": v}
                          for s, v in workloads.EXPECTED["quadric_radial"][1].items()}}
    if workloads.check_verify("quadric_radial", 0, passing):
        errors.append("oracle rejects a correct quadric report")
    for family in ("perturbed_transversal", "explicit_graph", "hyperbola"):
        if not workloads.check_verify(family, 0, passing):
            errors.append(f"oracle accepts a passing quadric report as {family}")
    broken = json.loads(json.dumps(passing))
    broken["engine_self_test"]["passed"] = False
    if not workloads.check_verify("quadric_radial", 0, broken):
        errors.append("oracle accepts a failed engine self-test")

    def table(metrics):
        rows = [f"{e:>10.4g}  {m:>12.4e}  {0.0:>12.4e}  {0.0:>12.4e}"
                for e, m in zip(workloads.EPSILONS, metrics)]
        return "\n".join(["header"] + rows)

    good = [10.0 ** -(2 * k + 1) for k in range(len(workloads.EPSILONS))]
    if workloads.check_sweep(0, table(good), 1e-6):
        errors.append("oracle rejects a decreasing sweep column")
    for bad in ([1e-7] + good[1:], good[:-1] + [1.0], [good[1], good[0]] + good[2:]):
        if not workloads.check_sweep(0, table(bad), 1e-6):
            errors.append(f"oracle accepts sweep column {bad}")
    return errors


def check_span_check() -> list:
    """The traced run must flag a span its metrics read that the workload
    never recorded: eps_sweep with none of its idle spans declared."""
    workload = replace(workloads.WORKLOADS["eps_sweep"].tiny(), idle_spans=())
    _, _, problems = run.run(workload, seed=0, seconds=0.2, trace=True, setups=1)
    if not any(p.startswith("spans never recorded") for p in problems):
        return [f"unrecorded spans not flagged: {problems}"]
    return []


def check_without_sources() -> list:
    """Only BENCHMARK.json and the benchmark's files: must fail cleanly."""
    run.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{BENCH.name}/run.py", "--workload", "lown_verify",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    try:
        run.WORK_ROOT.rmdir()
    except OSError:
        pass
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_oracle() + check_span_check() + check_without_sources()
    for entry in spec["workloads"]:
        workload = workloads.WORKLOADS[entry["name"]]
        for trace in (False, True):
            errors += check_run(spec, workload, trace)
            print(f"{workload.name} trace={int(trace)} done", flush=True)
    for error in errors:
        print(f"FAIL {error}")
    print("selftest failed" if errors else "selftest ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
