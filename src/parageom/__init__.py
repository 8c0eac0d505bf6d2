"""Numerical verification of induced almost paracontact structures on
affine hypersurfaces of even-dimensional flat space.

The package differentiates an immersion exactly through truncated Taylor
jets, splits the flat ambient derivative into induced connection, second
fundamental form, shape operator and transversal form, builds the induced
(phi, xi, eta) structure from the half-swap paracomplex involution, and
checks the classification identities (shape operator -Id, vanishing
transversal form, para-(-1)-contact/Sasakian conditions, hyperquadric
classification) at sampled chart points.  Every check is a named battery
that ``run_suite`` evaluates over a scene's samples; the converse battery
is one of them, built on a quadric scene by ``verify_quadric_converse``.

Typical use::

    from parageom import random_quadric_spec, verify_quadric_converse
    report = verify_quadric_converse(random_quadric_spec(n=1, seed=7))
    assert report.passed

or, from a terminal::

    parageom gen-quadric --n 1 --seed 7 --out scene.json
    parageom verify scene.json --json report.json
"""

from .errors import (
    BasePointNotFound,
    ChartLeak,
    DegenerateFrame,
    DegenerateJet,
    DegenerateMetric,
    GenerationError,
    NoAdmissibleSamples,
    OrderExceeded,
    ParageomError,
    ShapeError,
)
from .hypersurface import (
    DerivedTensors,
    Frame,
    ImmersionScene,
    InducedData,
    Polynomial,
    draw_samples,
    eval_immersion,
    fundamental_residuals,
    graph_scene,
    hyperbola_scene,
    induced_data,
    perturbed_scene,
    quadric_scene,
    radial_chart,
    random_graph_scene,
)
from .jets import Jet3, analytic, arith, extract_partial, jet_space, seed_variable
from .paracomplex import (
    QuadricSpec,
    anticommutator_residual,
    apply_J,
    random_quadric_spec,
)
from .paracontact import (
    ParacontactData,
    axiom_residuals,
    contact_residual,
    induced_structure,
    levi_civita,
    metric_residual,
    normality_residuals,
    sasakian_residual,
)
from .theorems import (
    SCENE_SUITES,
    PointAnalysis,
    TheoremReport,
    analyze_point,
    analyze_scene,
    run_suite,
    verify_quadric_converse,
)

__version__ = "0.1.0"
