"""Property test of the battery verdict rules, through ``run_suite``.

Residuals are drawn per sample, NaN, inf, empty (vacuous) and informational
identities among them, on both sides of the theorem tolerance, and given to
``run_suite`` as the body of a real battery record.  Its ``ok`` and
``status`` must match the reference below, written as a loop over samples,
for the default rule (METRIC) and for PROP_NORMAL's equivalence rule.
"""

import math
from dataclasses import replace
from functools import cache
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from parageom import theorems
from parageom.hypersurface import DEFAULT_TOLERANCES, quadric_scene
from parageom.paracomplex import random_quadric_spec
from parageom.theorems import analyze_scene, run_suite

SAMPLES = 3
TOL = DEFAULT_TOLERANCES["theorem"]
INFO = list(theorems._INFORMATIONAL)
VALUES = st.sampled_from([0.0, 0.5 * TOL, TOL, -TOL, 2 * TOL, 1.0, math.nan, math.inf, -math.inf])


@cache
def clean_batch():
    """A passing n = 1 quadric: no sample is skipped with the gates off."""
    scene = quadric_scene(random_quadric_spec(1, 98), seed=98, num_samples=SAMPLES)
    return scene, analyze_scene(scene)


@st.composite
def residuals(draw, names):
    """``{name: (SAMPLES, width) array}``; width 0 is a vacuous identity."""
    out = {}
    for name in names:
        size = SAMPLES * draw(st.integers(0, 2))
        out[name] = np.array(draw(st.lists(VALUES, min_size=size, max_size=size)))
        out[name] = out[name].reshape(SAMPLES, -1)
    return out


@st.composite
def cases(draw):
    theorem_id = draw(st.sampled_from(["METRIC", "PROP_NORMAL"]))
    if theorem_id == "METRIC":
        names = draw(st.lists(st.sampled_from(["x", "y", *INFO]), min_size=1, max_size=4,
                              unique=True))
    else:
        names = ["nijenhuis", "operational", *draw(st.lists(st.sampled_from(INFO), unique=True))]
    return theorem_id, draw(residuals(names))


def reference(theorem_id, res):
    """``(ok, status)`` by the rules as stated, one sample at a time."""

    def value(row):
        cells = [abs(float(c)) for c in row]
        return math.nan if any(math.isnan(c) for c in cells) else max(cells, default=0.0)

    counted = [k for k, r in res.items() if k not in INFO and r.shape[1] > 0]
    vacuous = [k for k, r in res.items() if k not in INFO and r.shape[1] == 0]
    ok = []
    for i in range(SAMPLES):
        v = {k: value(r[i]) for k, r in res.items()}
        if theorem_id == "METRIC":
            # Every counted identity within the tolerance; a NaN never is.
            ok.append(all(v[k] <= TOL for k in counted))
        else:
            # Both normality defects on the same side, and no NaN counted.
            same_side = (v["nijenhuis"] <= TOL) == (v["operational"] <= TOL)
            ok.append(same_side and not any(math.isnan(v[k]) for k in counted))
    if not all(ok):
        return ok, "failed"
    return ok, "vacuous" if vacuous and not counted else "passed"


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(cases())
def test_run_suite_verdicts_match_the_stated_rules(case):
    theorem_id, res = case
    scene, batch = clean_batch()
    battery = replace(theorems._BATTERIES[theorem_id], body=lambda pa: res)
    with mock.patch.dict(theorems._BATTERIES, {theorem_id: battery}):
        report = run_suite(scene, theorem_id, diagnostic=True, analyses=batch)
    assert report.skip_reasons == [None] * SAMPLES
    assert (report.ok, report.status) == reference(theorem_id, res)
