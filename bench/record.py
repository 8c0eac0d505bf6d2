"""Run every workload over several seeds and summarise the runs.

Usage, from the root of a checkout::

    python3 bench/record.py --seeds 0-9 --out bench/results/BENCH_x.json

Each run is ``bench/run.py`` in its own process, one after another, for
every workload of ``BENCHMARK.json`` at its ``run_seconds``: one untraced
run per seed of ``--seeds`` and one traced run per seed of ``TRACE_SEEDS``.
For every workload this prints each end-to-end metric by name and unit with the
median and quartiles over the seeds, and the spread (quartile distance over
median) next to the metric's bound in ``BENCHMARK.json``; and the median of
each per-layer metric over the traced runs.  ``--out`` writes all of it, with
every run's values and environment, as one entry of the BENCH trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
# Seeds of the traced runs that give the per-layer figures.
TRACE_SEEDS = (0, 1, 2)


def seed_list(text: str) -> list:
    seeds = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2])["info"]
    if not result["correct"]:
        print(proc.stderr, file=sys.stderr)
    return result


def summarise(runs: list, bounds: dict) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        entry = {"unit": runs[0]["metrics"][name]["unit"], "median": median, "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
        if name in bounds:
            entry["bound"] = bounds[name]
        out[name] = entry
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", help="untraced runs, as in 0-9 or 0,3,5")
    parser.add_argument("--out", help="write the summary as a BENCH trajectory file")
    parser.add_argument("--label", default="", help="what was measured, for the BENCH file")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    seconds = spec["run_seconds"]
    summary = {"label": args.label, "run_seconds": seconds, "workloads": {}}
    all_correct = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, s, seconds, 0) for s in seed_list(args.seeds)]
        traced = [run_once(workload, s, seconds, 1) for s in TRACE_SEEDS]
        entry = {
            "seeds": seed_list(args.seeds),
            "correct": all(r["correct"] for r in runs + traced),
            "attempted": sum(r["attempted"] for r in runs + traced),
            "failed": sum(r["failed"] for r in runs + traced),
            "end_to_end": summarise(runs, bounds),
            "runs": [r["info"] for r in runs],
            "trace_seeds": list(TRACE_SEEDS),
            "per_layer": summarise(traced, {}),
        }
        all_correct &= entry["correct"]
        summary["workloads"][workload] = entry

        print(f"== {workload}: {len(runs)} runs, {entry['attempted']} requests, "
              f"{entry['failed']} failed, correct={entry['correct']}")
        for name, m in entry["end_to_end"].items():
            spread = m.get("spread")
            flag = ""
            if spread is not None and name in bounds:
                flag = "ok" if spread < bounds[name] / 3 else (
                    "WIDE" if spread < bounds[name] else "OVER BOUND")
            print(f"  {name:<16} {m['median']:>12.6g} {m['unit']:<6} "
                  f"q1 {m.get('q1', m['median']):.6g}  q3 {m.get('q3', m['median']):.6g}  "
                  f"spread {spread if spread is not None else float('nan'):.4f}  "
                  f"bound {bounds.get(name, float('nan'))}  {flag}")
        for name, m in entry["per_layer"].items():
            print(f"  {name:<48} {m['median']:>12.6g} {m['unit']}")
        sys.stdout.flush()

    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
