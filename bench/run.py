"""parageom benchmark: one workload, one process, one closed-loop caller.

Usage, from the root of a checkout::

    python3 bench/run.py --workload lown_verify --seed 0 --seconds 36 --trace 0

The benchmark imports ``parageom`` from the checkout's ``src/``, writes the
workload's scene files (generated from ``--seed``) to a temporary directory
under ``.bench_work/``, and sends requests through ``parageom.cli.main`` one
after another until ``--seconds`` have passed.  Every request is checked by
the verdict oracle in ``workloads.py``.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, the median of
five set-ups (import, scene files, one warm-up request per n) spread over the
run; ``request_s_p50``, the median request wall time; ``request_s_tail``,
the median over blocks of 100 requests of each block's highest percentile
with ten requests beyond it; ``samples_per_s``, the usable samples of one
pass over the scenes per second of that pass, each scene taken at its median
request time; ``peak_rss_mb``, the process's peak resident memory.
``failed_fraction`` is ``failed / attempted``.  ``--trace 1`` alternates an
untraced and a traced run of each request and reports the per-layer metrics
from the spans of the traced ones (see ``spans.py``), the tracing overhead
and how much of the request time the layer self times cover.  A traced run
is not correct if a span that a per-layer metric reads was never recorded,
unless the workload declares it idle.

Every metric is printed by name with its unit.  The last line of stdout is a
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the run environment.
"""

from __future__ import annotations

import os

# One BLAS thread: the linear algebra here is on matrices of at most 10x10,
# where BLAS threads only add scheduling noise.  Must precede the numpy import.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
# Set-ups per run; setup_s is their median.
SETUP_REPEATS = 5
# Requests per block of the tail statistic.  With blocks of this size the
# tail is p90 on every workload whatever its request rate, and the median over
# the blocks of a run is not set by one burst of load on the machine.
TAIL_BLOCK = 100
# Share of the traced request time the layer self times must cover.
COVERAGE_RANGE = (0.97, 1.03)


class ProgramNotFound(RuntimeError):
    pass


def load_program():
    """Import ``parageom`` afresh from the checkout's ``src/``, so that every
    set-up pays the import and builds the cached jet tables again."""
    if not (SRC / "parageom" / "__init__.py").is_file():
        raise ProgramNotFound(f"no parageom package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for key in [k for k in sys.modules if k == "parageom" or k.startswith("parageom.")]:
        del sys.modules[key]
    cli = importlib.import_module("parageom.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ProgramNotFound(f"parageom was imported from {cli.__file__}, not {SRC}")
    return SimpleNamespace(cli=cli, hypersurface=sys.modules["parageom.hypersurface"])


def set_up(workload, seed: int, work_dir: str):
    """Import the program, write the scene files and send one untimed
    warm-up request per distinct n.  Returns (seconds, program, scenes,
    problems of the warm-up requests)."""
    t0 = perf_counter()
    program = load_program()
    scene_dir = tempfile.mkdtemp(dir=work_dir)
    scenes = workloads.generate(program, workload, seed, scene_dir)
    first_per_n = {}
    for scene in scenes:
        first_per_n.setdefault(scene.kind.n, scene)
    problems = []
    report = os.path.join(scene_dir, "warmup_report.json")
    for scene in first_per_n.values():
        problems += workloads.request(program, workload, scene, report).problems
    return perf_counter() - t0, program, scenes, problems


def tail(walls: list):
    """(percentiles, value, blocks) of the request-time tail.

    The requests are split, in order, into blocks of at least ``TAIL_BLOCK``.
    In each block the tail is the highest whole percentile, by nearest rank,
    with at least ten requests above its value; the value reported is the
    median over the blocks, with the set of block percentiles.
    """
    found = []
    for block in np.array_split(np.asarray(walls), max(1, len(walls) // TAIL_BLOCK)):
        ordered = np.sort(block)
        n = len(ordered)
        p = next((p for p in range(99, 0, -1) if n - math.ceil(p * n / 100) >= 10), 100)
        found.append((p, float(ordered[max(math.ceil(p * n / 100), 1) - 1])))
    return sorted({p for p, _ in found}), statistics.median(v for _, v in found), len(found)


def samples_rate(plain: list, n_scenes: int) -> float:
    """Usable samples per second of request time over one pass of the scenes,
    each scene at its median request time and sample count.  Request ``j``
    went to scene ``j % n_scenes``.  Per-scene medians keep a burst of load
    on the machine out of the figure, as a sum over all requests would not."""
    by_scene = {}
    for j, o in enumerate(plain):
        by_scene.setdefault(j % n_scenes, []).append(o)
    samples = sum(statistics.median(o.samples for o in group) for group in by_scene.values())
    seconds = sum(statistics.median(o.wall_s for o in group) for group in by_scene.values())
    return samples / seconds


def measure(program, workload, scenes, seconds: float, work_dir: str, first: int,
            tracer=None):
    """Closed loop over the scenes, starting at request ``first``, until
    ``seconds`` have passed.

    Returns the untraced outcomes and, with a tracer, the traced outcomes of
    the same requests (each traced run follows its untraced twin).
    """
    plain, traced = [], []
    report = os.path.join(work_dir, "report.json")
    deadline = perf_counter() + seconds
    i = first
    while not plain or perf_counter() < deadline:
        scene = scenes[i % len(scenes)]
        plain.append(workloads.request(program, workload, scene, report))
        if tracer is not None:
            tracer.request_id = i
            tracer.attach()
            try:
                traced.append(workloads.request(program, workload, scene, report))
            finally:
                tracer.detach()
        i += 1
    return plain, traced


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "processes": 1,
        "callers": 1,
    }


def run(workload, seed: int, seconds: float, trace: bool, setups: int = SETUP_REPEATS):
    """Run one workload; returns (result dict, info dict, problems)."""
    setup_times, problems, plain, traced = [], [], [], []
    tracer = spans.Tracer() if trace else None
    WORK_ROOT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK_ROOT) as work_dir:
            # The set-ups are spread over the run, each followed by an equal
            # share of the measured requests, so that their median and the
            # request figures see the same stretches of machine load.
            for _ in range(setups):
                t, program, scenes, warm_problems = set_up(workload, seed, work_dir)
                setup_times.append(t)
                problems += warm_problems
                more_plain, more_traced = measure(
                    program, workload, scenes, seconds / setups, work_dir, len(plain), tracer
                )
                plain += more_plain
                traced += more_traced
    finally:
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    outcomes = plain + traced
    failed = sum(1 for o in outcomes if o.problems)
    for o in outcomes:
        problems += o.problems
    walls = [o.wall_s for o in plain]
    tail_percentiles, tail_value, tail_blocks = tail(walls)
    info = dict(
        environment(seed),
        workload=workload.name,
        seconds=seconds,
        requests=len(plain),
        traced_requests=len(traced),
        scenes=len(scenes),
        tail_percentiles=tail_percentiles,
        tail_blocks=tail_blocks,
        failed_fraction=failed / len(outcomes),
        setup_s_all=setup_times,
    )

    if not trace:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "request_s_p50": (statistics.median(walls), "s"),
            "request_s_tail": (tail_value, "s"),
            "samples_per_s": (samples_rate(plain, len(scenes)), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        traced_wall = sum(o.wall_s for o in traced)
        metrics, unrecorded = tracer.layer_metrics(len(traced), traced_wall)
        metrics["trace.overhead"] = (traced_wall / sum(walls), "ratio")
        metrics["cli.report_bytes"] = (
            sum(o.report_bytes for o in traced) / len(traced), "B/req")
        coverage = metrics["trace.coverage"][0]
        if not COVERAGE_RANGE[0] <= coverage <= COVERAGE_RANGE[1]:
            problems.append(f"layer self times cover {coverage:.4f} of traced request time")
        if unrecorded - set(workload.idle_spans):
            problems.append(f"spans never recorded: {sorted(unrecorded - set(workload.idle_spans))}")
        info["spans"] = len(tracer.start)

    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info, problems


def print_result(result: dict, info: dict):
    print(f"workload {info['workload']}  seed {info['seed']}  {info['seconds']} s  "
          f"{info['requests']} requests ({info['traced_requests']} traced)")
    print(f"tail = median over {info['tail_blocks']} blocks of requests of the "
          f"highest percentile with ten requests beyond it "
          f"({', '.join(f'p{p}' for p in info['tail_percentiles'])})")
    print(f"failed_fraction {info['failed_fraction']:.6g} "
          f"({result['failed']} of {result['attempted']})")
    for name, m in result["metrics"].items():
        print(f"{name:<48} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"info": info}))
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        result, info, problems = run(
            workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
        )
    except ProgramNotFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    if len(problems) > 20:
        print(f"... and {len(problems) - 20} more problems", file=sys.stderr)
    print_result(result, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
