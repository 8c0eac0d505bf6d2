"""Span tracing of the parageom layers, attached from outside the library.

A :class:`Tracer` wraps the public functions and methods of each layer module
by replacing module and class attributes at run time.  Every module of the
package that imported a function by name (``from .hypersurface import
induced_data``) gets the wrapper too, so a call is traced wherever the name
is looked up.  Methods are wrapped on their class, which every importer
shares.

Each call records one span: name, start, end, parent span and request id,
kept in flat arrays in memory.  :meth:`Tracer.layer_metrics` turns them into
per-request figures after the run; a span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("jets", "paracomplex", "hypersurface", "paracontact", "theorems", "cli")
PACKAGE = "parageom"

SUITES = (
    "METRIC",
    "TW_WZORY",
    "COR_WZORY",
    "PROP_NORMAL",
    "LEM_EST",
    "LEM_CUBIC",
    "THM_STAU",
    "THM_EQUIV",
    "THM_QUADRIC_FWD",
)

# Span names of the functions the per-layer metrics single out.
MUL = "jets.JetSpace.mul"
MATVEC = "jets.JetSpace.matvec"
FRAME = "hypersurface.Frame"
DRAW = "hypersurface.draw_samples"
ANALYZE = "theorems.analyze_point"
RUN_SUITE = "theorems.run_suite"


class Tracer:
    """Span recorder for one benchmark process."""

    def __init__(self):
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.request_id = -1
        self._plan: list[tuple[object, str, object, object]] | None = None
        self._package = None
        self._jet_rows: dict[object, list[int]] = {}
        self.draw_accepted = 0
        self.suite_skips = 0

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # ------------------------------------------------------------------
    # wrapping

    def _wrap(self, name, fn, after=None, suffix=None):
        nid = self._id(name)
        stack = self._stack
        names, parents, requests = self.name, self.parent, self.request
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = nid if suffix is None else self._id(f"{name}.{suffix(args, kwargs)}")
            idx = len(starts)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # Output rows (result size over the coefficient count) per kernel; with
    # the jet space's tables they give the computed flop count.
    def _count_mul(self, args, result):
        rows = self._jet_rows.setdefault(args[0], [0, 0, 0])
        rows[0] += result.size // result.shape[-1]

    def _count_matvec(self, args, result):
        rows = self._jet_rows.setdefault(args[0], [0, 0, 0])
        out_rows = result.size // result.shape[-1]
        rows[1] += out_rows
        rows[2] += out_rows * args[1].shape[1]

    def _count_draw(self, args, result):
        self.draw_accepted += len(result)

    def _count_suite(self, args, result):
        self.suite_skips += result.num_skipped

    def attach(self):
        """Replace every public function and method of the layer modules of
        the loaded ``parageom`` package with its traced wrapper."""
        if self._plan is None or self._package is not sys.modules[PACKAGE]:
            # First use, or the package was imported afresh since.
            self._package = sys.modules[PACKAGE]
            self._plan = self._build_plan()
        for owner, attr, _, new in self._plan:
            setattr(owner, attr, new)

    def detach(self):
        """Restore every attribute :meth:`attach` replaced."""
        for owner, attr, old, _ in reversed(self._plan or ()):
            setattr(owner, attr, old)

    def _build_plan(self):
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        after = {
            MUL: self._count_mul,
            MATVEC: self._count_matvec,
            DRAW: self._count_draw,
            RUN_SUITE: self._count_suite,
        }
        suffix = {RUN_SUITE: _suite_label}
        plan = []
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            source = mod.__file__
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    # Methods written in the module; dataclass-generated ones
                    # have no source file and are left alone.
                    for meth, fn in list(vars(obj).items()):
                        if not inspect.isfunction(fn) or fn.__code__.co_filename != source:
                            continue
                        if meth == "__init__":
                            name = f"{layer}.{attr}"
                        elif not meth.startswith("_"):
                            name = f"{layer}.{attr}.{meth}"
                        else:
                            continue
                        plan.append((obj, meth, fn, self._wrap(name, fn, after.get(name))))
                elif callable(obj):
                    name = f"{layer}.{attr}"
                    new = self._wrap(name, obj, after.get(name), suffix.get(name))
                    for owner in modules:
                        for key, value in list(vars(owner).items()):
                            if value is obj:
                                plan.append((owner, key, obj, new))
        return plan

    # ------------------------------------------------------------------
    # results

    def layer_metrics(self, requests: int, request_wall_s: float) -> tuple:
        """Per-request layer figures from the recorded spans, and the names
        of the spans a figure reads that were never recorded.

        ``requests`` and ``request_wall_s`` are the number of traced requests
        and their summed wall time as measured around each request.  A span
        that is never recorded reads as zero, so the caller must check the
        unrecorded names against the spans its workload should call: a
        function that is renamed, or called where the tracer did not wrap
        it, shows up there instead of charging its time silently to its
        caller's layer.
        """
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_time = dur - children
        if len(dur) and self_time.min() < -1e-6:
            raise RuntimeError("a child span outlasts its parent")
        k = len(self.names)
        self_by = np.bincount(name, weights=self_time, minlength=k)
        total_by = np.bincount(name, weights=dur, minlength=k)
        calls_by = np.bincount(name, minlength=k)

        unrecorded = set()

        def pick(table, span):
            nid = self._ids.get(span)
            if nid is None or not calls_by[nid]:
                unrecorded.add(span)
                return 0.0
            return float(table[nid])

        per_req = 1.0 / max(requests, 1)
        per_wall = 1.0 / request_wall_s if request_wall_s > 0 else 0.0
        analyses = max(pick(calls_by, ANALYZE), 1.0)
        layer_self = {layer: 0.0 for layer in LAYERS}
        for nid, span in enumerate(self.names):
            layer_self[span.split(".", 1)[0]] += float(self_by[nid])

        frame_id = self._ids.get(FRAME)
        draw_id = self._ids.get(DRAW)
        frames_in_draw = 0
        if frame_id is not None and draw_id is not None:
            frame_spans = name == frame_id
            frames_in_draw = int(np.sum(name[parent[frame_spans & nested]] == draw_id))

        flops = 0.0
        for space, (mul_rows, matvec_rows, matvec_inner) in self._jet_rows.items():
            pairs, ncoeff = len(space._mul_left), space.ncoeff
            # mul: gather-multiply each factor pair, then the dense scatter
            # matmul (pairs x ncoeff) that sums pairs into coefficients.
            flops += mul_rows * pairs * (1 + 2 * ncoeff)
            # matvec: multiply-add over the inner jet index, then the scatter.
            flops += matvec_inner * pairs * 2 + matvec_rows * pairs * 2 * ncoeff
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (layer_self[layer] * per_req, "s/req")
            out[f"{layer}.self_share"] = (layer_self[layer] * per_wall, "fraction")
        out.update(
            {
                "jets.mul.calls": (pick(calls_by, MUL) * per_req, "calls/req"),
                "jets.mul.self_s": (pick(self_by, MUL) * per_req, "s/req"),
                "jets.matvec.calls": (pick(calls_by, MATVEC) * per_req, "calls/req"),
                "jets.matvec.self_s": (pick(self_by, MATVEC) * per_req, "s/req"),
                "jets.flops_computed": (flops * per_req, "flop/req"),
                "jets.kernels.share": (
                    (pick(self_by, MUL) + pick(self_by, MATVEC)) * per_wall, "fraction"),
                "hypersurface.eval_immersion.self_s": (
                    pick(self_by, "hypersurface.eval_immersion") * per_req, "s/req"),
                "hypersurface.Frame.calls_per_sample": (
                    pick(calls_by, FRAME) / analyses, "calls/sample"),
                "hypersurface.Frame.self_s": (pick(self_by, FRAME) * per_req, "s/req"),
                "hypersurface.decompose_jets.self_s": (
                    pick(self_by, "hypersurface.Frame.decompose_jets") * per_req, "s/req"),
                "hypersurface.induced_data.self_s": (
                    pick(self_by, "hypersurface.induced_data") * per_req, "s/req"),
                "hypersurface.derive_tensors.s": (
                    pick(total_by, "hypersurface.derive_tensors") * per_req, "s/req"),
                "hypersurface.residuals_from_data.s": (
                    pick(total_by, "hypersurface.residuals_from_data") * per_req, "s/req"),
                "hypersurface.draw_samples.s": (pick(total_by, DRAW) * per_req, "s/req"),
                "hypersurface.draw_samples.frame_accept_ratio": (
                    self.draw_accepted / frames_in_draw if frames_in_draw else 0.0, "ratio"),
                "paracontact.induced_structure.self_s": (
                    pick(self_by, "paracontact.induced_structure") * per_req, "s/req"),
                "paracontact.normality_residuals.calls_per_sample": (
                    pick(calls_by, "paracontact.normality_residuals") / analyses,
                    "calls/sample"),
                "paracontact.normality_residuals.s": (
                    pick(total_by, "paracontact.normality_residuals") * per_req, "s/req"),
                "paracontact.levi_civita.calls_per_sample": (
                    pick(calls_by, "paracontact.levi_civita") / analyses, "calls/sample"),
                "paracontact.sasakian_residual.s": (
                    pick(total_by, "paracontact.sasakian_residual") * per_req, "s/req"),
                "paracontact.metric_residual.s": (
                    pick(total_by, "paracontact.metric_residual") * per_req, "s/req"),
                "theorems.analyze_point.self_s": (pick(self_by, ANALYZE) * per_req, "s/req"),
            }
        )
        batteries = 0.0
        for suite in SUITES:
            t = pick(total_by, f"{RUN_SUITE}.{suite}")
            batteries += t
            out[f"theorems.run_suite.{suite}.s"] = (t * per_req, "s/req")
        out["theorems.skipped_samples"] = (self.suite_skips * per_req, "samples/req")
        out["theorems.batteries.share"] = (batteries * per_wall, "fraction")
        out["cli.load_scene_file.s"] = (
            pick(total_by, "cli.load_scene_file") * per_req, "s/req")
        out["cli.run_verification.s"] = (
            pick(total_by, "cli.run_verification") * per_req, "s/req")
        out["trace.coverage"] = (float(self_time.sum()) * per_wall, "fraction")
        return out, unrecorded


def _suite_label(args, kwargs) -> str:
    return kwargs["theorem_id"] if "theorem_id" in kwargs else args[1]
