"""Immersion families and the induced affine apparatus.

For an immersion f of a (2n+1)-dimensional chart into R^{2n+2} with a chosen
transversal field C, the flat ambient derivative splits as

    D_i e_j = Gamma^k_{ij} e_k + h_{ij} C        (e_i = d_i f)
    D_i C   = -S^k_i e_k + tau_i C

and this module computes Gamma, h, S, tau together with their first chart
derivatives in jet arithmetic (no finite differences anywhere).  f and C are
evaluated as order-3 jets; after the derivatives d_i f, d_j d_i f and d_i C
everything is truncated to first-order jets: the frame matrix
B = [e_1 .. e_m | C] is a matrix of value-plus-gradient jets and the
decompositions are exact truncated-polynomial linear solves.

Everything from ``eval_immersion`` to ``residuals_from_data`` takes one chart
point ``(m,)`` or a stack ``(S, m)``, with the sample axis in front of every
array, so a scene's analysis is computed once per scene, on the stack of its
samples.  A sample that fails (outside the chart, an ill-conditioned frame)
is kept in the ``faults`` record of the batch with the message a single
point raises, and carries harmless values so that it stops no other sample.
Sampling screens candidate chart points in blocks with order-1 jets of f and
C, since the frame value B0 is all the screen tests: it builds no order-3
jet and no ``Frame``, and each kept point is evaluated at order 3 once, by
its scene's analysis.

From those come the curvature tensor, the covariant derivative of h, the
totally symmetric cubic form and the exterior derivative of tau, plus the
residuals of the four structure equations (Gauss, both Codazzi equations,
Ricci) that hold for *any* transversal field and act as the engine's
self-test.

Built-in immersion families:

* ``hyperbola``             — (cosh t, sinh t) with the position transversal.
* ``quadric_radial``        — x(u) = y/sqrt(y'Ay), y = x0 + sum u^i v_i, on a
                              centered quadric x'Ax = 1, transversal C = x.
* ``perturbed_transversal`` — same immersion, C = x + eps * W with W a field
                              tangent to the J-invariant distribution, so C
                              stays J-tangent but the structure degrades
                              controllably with eps.
* ``explicit_graph``        — polynomial graph immersion with a polynomial
                              transversal; the anything-goes family for
                              self-tests and negative paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BasePointNotFound,
    ChartLeak,
    DegenerateFrame,
    GenerationError,
    NoAdmissibleSamples,
    ShapeError,
    failed,
    no_failures,
    record_failures,
)
from .jets import MAX_ORDER, JetSpace, jet_space
from .paracomplex import QuadricSpec, apply_J

FAMILIES = ("hyperbola", "quadric_radial", "perturbed_transversal", "explicit_graph")

DEFAULT_NUM_SAMPLES = 20
DEFAULT_SAMPLE_BOX = 0.4
# Radial charts stay where y'Ay is safely positive.
CHART_Q_MIN = 0.1
FRAME_COND_LIMIT = 1e8
# |det h| below this (relative to max|h|^m) flags the sample as metric-degenerate.
H_DET_FLOOR = 1e-10
# Base-point search: draws, and the least share of the top eigenvalue of A
# that an accepted direction must realize.
BASE_POINT_TRIES = 1000
BASE_POINT_QUALITY = 0.05
# Size of the random cubic coefficients of ``random_graph_scene``.
GRAPH_CUBIC_SCALE = 0.3

DEFAULT_TOLERANCES = {"engine": 1e-8, "theorem": 1e-6}


# ----------------------------------------------------------------------
# polynomials (graph family)


@dataclass
class Polynomial:
    """Sparse multivariate polynomial: list of (exponent tuple, coefficient)."""

    num_vars: int
    terms: list

    def __post_init__(self):
        clean = []
        for alpha, c in self.terms:
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != self.num_vars or any(a < 0 for a in alpha):
                raise ShapeError(f"bad exponent tuple {alpha} for {self.num_vars} vars")
            clean.append((alpha, float(c)))
        self.terms = clean

    def eval_jets(self, space: JetSpace, seeds: np.ndarray) -> np.ndarray:
        """The polynomial as a jet, from the coordinate jets ``(..., num_vars,
        ncoeff)`` of one chart point or of a stack of them."""
        max_pow = [0] * self.num_vars
        for alpha, _ in self.terms:
            for i, a in enumerate(alpha):
                max_pow[i] = max(max_pow[i], a)
        powers = []
        for i in range(self.num_vars):
            p = [space.const(1.0)]
            for _ in range(max_pow[i]):
                p.append(space.mul(p[-1], seeds[..., i, :]))
            powers.append(p)
        out = np.zeros(seeds.shape[:-2] + (space.ncoeff,))
        for alpha, c in self.terms:
            term = space.const(c)
            for i, a in enumerate(alpha):
                if a:
                    term = space.mul(term, powers[i][a])
            out += term
        return out

    def to_dict(self) -> dict:
        return {"terms": [[list(alpha), c] for alpha, c in self.terms]}


# ----------------------------------------------------------------------
# scenes


@dataclass
class ImmersionScene:
    """An immersion family plus everything needed to evaluate and sample it."""

    family: str
    n: int
    params: dict
    samples: list = field(default_factory=list)
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ShapeError(f"unknown immersion family {self.family!r}")
        if self.n < 0:
            raise ShapeError(f"n must be >= 0, got {self.n}")

    @property
    def chart_dim(self) -> int:
        return 2 * self.n + 1

    @property
    def ambient_dim(self) -> int:
        return 2 * self.n + 2


def find_base_point(spec: QuadricSpec, rng: np.random.Generator) -> np.ndarray:
    """Search random ambient directions for one with y'Ay > 0, normalized onto
    the quadric.  For conditioning, a direction is accepted only when it
    realizes at least ``BASE_POINT_QUALITY`` of the largest achievable quadric
    value per unit length (the top eigenvalue of A)."""
    top = float(np.max(np.linalg.eigvalsh(spec.A)))
    if top <= 0.0:
        raise BasePointNotFound("quadric matrix has no positive directions")
    for _ in range(BASE_POINT_TRIES):
        d = rng.normal(size=spec.ambient_dim)
        q = float(d @ spec.A @ d)
        if q > BASE_POINT_QUALITY * top * float(d @ d):
            return d / np.sqrt(q)
    raise BasePointNotFound(
        f"no direction with positive quadric value in {BASE_POINT_TRIES} draws"
    )


def tangent_basis(spec: QuadricSpec, x0: np.ndarray) -> np.ndarray:
    """Orthonormal basis (rows) of the tangent plane {v : (A x0) . v = 0}."""
    w = spec.A @ np.asarray(x0, dtype=float)
    _, _, vh = np.linalg.svd(w[None, :])
    return vh[1:]


def _validate_quadric_params(spec: QuadricSpec, x0: np.ndarray, basis: np.ndarray):
    if abs(float(x0 @ spec.A @ x0) - 1.0) > 1e-9:
        raise ShapeError("base point does not satisfy x'Ax = 1")
    m = 2 * spec.n + 1
    if basis.shape != (m, spec.ambient_dim):
        raise ShapeError(f"tangent basis shape {basis.shape} != ({m}, {spec.ambient_dim})")
    w = spec.A @ x0
    if np.max(np.abs(basis @ w)) > 1e-9:
        raise ShapeError("tangent basis is not orthogonal to A x0")
    if np.linalg.matrix_rank(basis, tol=1e-10) != m:
        raise ShapeError("tangent basis does not span the tangent plane")


def hyperbola_scene(
    seed: int = 0,
    num_samples: int = DEFAULT_NUM_SAMPLES,
    sample_box: float = DEFAULT_SAMPLE_BOX,
    tolerances: dict | None = None,
    samples: list | None = None,
) -> ImmersionScene:
    scene = ImmersionScene(
        family="hyperbola",
        n=0,
        params={},
        tolerances=dict(tolerances or DEFAULT_TOLERANCES),
    )
    _attach_samples(scene, seed, num_samples, sample_box, samples)
    return scene


def quadric_scene(
    spec: QuadricSpec,
    seed: int = 0,
    num_samples: int = DEFAULT_NUM_SAMPLES,
    sample_box: float = DEFAULT_SAMPLE_BOX,
    tolerances: dict | None = None,
    base_point: np.ndarray | None = None,
    basis: np.ndarray | None = None,
    samples: list | None = None,
) -> ImmersionScene:
    """Radial chart on a centered quadric with the position transversal C = x."""
    rng = np.random.default_rng([seed, 1])
    x0 = np.asarray(base_point, dtype=float) if base_point is not None else find_base_point(spec, rng)
    v = np.asarray(basis, dtype=float) if basis is not None else tangent_basis(spec, x0)
    _validate_quadric_params(spec, x0, v)
    scene = ImmersionScene(
        family="quadric_radial",
        n=spec.n,
        params={"quadric": spec, "base_point": x0, "basis": v},
        tolerances=dict(tolerances or DEFAULT_TOLERANCES),
    )
    _attach_samples(scene, seed, num_samples, sample_box, samples)
    return scene


def perturbed_scene(
    spec: QuadricSpec,
    epsilon: float,
    seed: int = 0,
    num_samples: int = DEFAULT_NUM_SAMPLES,
    sample_box: float = DEFAULT_SAMPLE_BOX,
    tolerances: dict | None = None,
    base_point: np.ndarray | None = None,
    basis: np.ndarray | None = None,
    direction: np.ndarray | None = None,
    samples: list | None = None,
) -> ImmersionScene:
    """Quadric immersion with transversal C = x + eps * W.

    W is the projection of a fixed ambient direction onto the J-invariant
    tangent distribution, so C stays J-tangent for every eps while the
    metric compatibility degrades linearly with eps.  The direction is
    normalized so that |W| = 1 at the base point.
    """
    rng = np.random.default_rng([seed, 1])
    x0 = np.asarray(base_point, dtype=float) if base_point is not None else find_base_point(spec, rng)
    v = np.asarray(basis, dtype=float) if basis is not None else tangent_basis(spec, x0)
    _validate_quadric_params(spec, x0, v)
    if direction is None:
        dir_rng = np.random.default_rng([seed, 3])
        for _ in range(100):
            w = dir_rng.normal(size=spec.ambient_dim)
            w0 = _project_to_invariant(spec.A, x0, w)
            norm = float(np.linalg.norm(w0))
            if norm > 0.3:
                direction = w / norm
                break
        else:
            raise GenerationError("could not find a usable perturbation direction")
    scene = ImmersionScene(
        family="perturbed_transversal",
        n=spec.n,
        params={
            "quadric": spec,
            "base_point": x0,
            "basis": v,
            "epsilon": float(epsilon),
            "direction": np.asarray(direction, dtype=float),
        },
        tolerances=dict(tolerances or DEFAULT_TOLERANCES),
    )
    _attach_samples(scene, seed, num_samples, sample_box, samples)
    return scene


def _project_to_invariant(a_mat: np.ndarray, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Project an ambient vector onto the J-invariant part of the tangent
    plane at a quadric point (numeric version of the jet formula below)."""
    jx = apply_J(x)
    return w - float(x @ a_mat @ w) * x - float(x @ a_mat @ apply_J(w)) * jx


def graph_scene(
    graph: Polynomial,
    transversal: list | None = None,
    seed: int = 0,
    num_samples: int = DEFAULT_NUM_SAMPLES,
    sample_box: float = DEFAULT_SAMPLE_BOX,
    tolerances: dict | None = None,
    samples: list | None = None,
) -> ImmersionScene:
    """Graph immersion u -> (u, g(u)) with a polynomial transversal field.

    The default transversal is the constant last coordinate vector.
    """
    m = graph.num_vars
    if m % 2 != 1:
        raise ShapeError(f"graph chart dimension must be odd, got {m}")
    n = (m - 1) // 2
    dim = m + 1
    if transversal is None:
        transversal = [
            Polynomial(m, [((0,) * m, 1.0 if r == m else 0.0)]) for r in range(dim)
        ]
    if len(transversal) != dim:
        raise ShapeError(f"transversal needs {dim} components, got {len(transversal)}")
    scene = ImmersionScene(
        family="explicit_graph",
        n=n,
        params={"graph": graph, "transversal": list(transversal)},
        tolerances=dict(tolerances or DEFAULT_TOLERANCES),
    )
    _attach_samples(scene, seed, num_samples, sample_box, samples)
    return scene


def random_graph_scene(
    n: int,
    seed: int,
    num_samples: int = DEFAULT_NUM_SAMPLES,
    sample_box: float = DEFAULT_SAMPLE_BOX,
    tolerances: dict | None = None,
) -> ImmersionScene:
    """Nondegenerate random cubic graph with a mildly perturbed transversal.

    The quadratic part has Hessian diag(+-1) so h stays invertible on small
    sample boxes; cubic terms make the connection and cubic form genuinely
    position-dependent.
    """
    m = 2 * n + 1
    rng = np.random.default_rng([seed, 4])
    signs = rng.choice([-1.0, 1.0], size=m)
    terms = []
    for i in range(m):
        e2 = [0] * m
        e2[i] = 2
        terms.append((tuple(e2), 0.5 * signs[i]))
    for i in range(m):
        for j in range(i, m):
            for k in range(j, m):
                alpha = [0] * m
                alpha[i] += 1
                alpha[j] += 1
                alpha[k] += 1
                terms.append((tuple(alpha), GRAPH_CUBIC_SCALE * rng.uniform(-1.0, 1.0)))
    graph = Polynomial(m, terms)
    dim = m + 1
    transversal = []
    for r in range(dim):
        t = [((0,) * m, 1.0 if r == m else 0.0)]
        for i in range(m):
            e1 = [0] * m
            e1[i] = 1
            t.append((tuple(e1), 0.2 * rng.uniform(-1.0, 1.0)))
        transversal.append(Polynomial(m, t))
    return graph_scene(
        graph,
        transversal,
        seed=seed,
        num_samples=num_samples,
        sample_box=sample_box,
        tolerances=tolerances,
    )


# ----------------------------------------------------------------------
# evaluation


def eval_immersion(scene: ImmersionScene, u: np.ndarray, order: int = MAX_ORDER):
    """Jets of the immersion and the transversal at a chart point, of total
    degree <= ``order``.

    Returns ``(f, C)`` as ``(ambient_dim, ncoeff)`` coefficient arrays, or
    ``(..., ambient_dim, ncoeff)`` for a ``(..., m)`` stack of points.  The
    coefficients of degree <= 1 do not depend on ``order``.  A point outside
    the radial chart raises ChartLeak; ``induced_data`` keeps such points of
    a stack out beforehand.
    """
    u = np.asarray(u, dtype=float)
    for fault in _chart_faults(scene, u).flat:
        if fault is not None:
            raise fault
    m = scene.chart_dim
    space = jet_space(m, order)
    seeds = space.seeds(u)

    if scene.family == "hyperbola":
        t = seeds[..., 0, :]
        f = np.stack([space.cosh(t), space.sinh(t)], axis=-2)
        return f, f.copy()

    if scene.family in ("quadric_radial", "perturbed_transversal"):
        spec: QuadricSpec = scene.params["quadric"]
        x0 = scene.params["base_point"]
        basis = scene.params["basis"]
        y = space.const(x0) + np.einsum("ir,...ic->...rc", basis, seeds)
        ay = np.einsum("rs,...sc->...rc", spec.A, y)
        q = space.mul(y, ay).sum(axis=-2)
        f = space.mul(y, space.inv(space.sqrt(q))[..., None, :])
        if scene.family == "quadric_radial":
            return f, f.copy()
        eps = scene.params["epsilon"]
        w = scene.params["direction"]
        aw = spec.A @ w
        ajw = spec.A @ apply_J(w)
        s1 = np.einsum("r,...rc->...c", aw, f)
        s2 = np.einsum("r,...rc->...c", ajw, f)
        w_field = space.const(w) - space.mul(s1[..., None, :], f) - space.mul(
            s2[..., None, :], apply_J(f, axis=-2)
        )
        return f, f + eps * w_field

    # explicit_graph
    graph: Polynomial = scene.params["graph"]
    f = np.zeros(u.shape[:-1] + (m + 1, space.ncoeff))
    f[..., :m, :] = seeds
    f[..., m, :] = graph.eval_jets(space, seeds)
    c = np.stack([p.eval_jets(space, seeds) for p in scene.params["transversal"]], axis=-2)
    return f, c


def _chart_faults(scene: ImmersionScene, u: np.ndarray) -> np.ndarray:
    """The failure record of the chart points ``u`` (..., m): a ChartLeak for
    each point outside the radial chart, where the chart quality is <= 0."""
    if u.shape[-1:] != (scene.chart_dim,):
        raise ShapeError(f"chart point shape {u.shape} != (..., {scene.chart_dim})")
    q = _chart_quality(scene, u)
    faults = no_failures(q.shape)
    record_failures(
        faults, q <= 0.0, lambda k: ChartLeak(f"quadric value {q.flat[k]:.3g} <= 0 at chart point")
    )
    return faults


def _frame_value(f_jet: np.ndarray, C_jet: np.ndarray):
    """``(B0, cond, faults)``: B0 = [d_1 f .. d_m f | C] at the chart point(s),
    from jets of f and C of any order, its condition number and a
    DegenerateFrame for each sample whose B0 is not finite (cond nan) or too
    ill-conditioned to decompose against.  Such a sample's B0 is replaced by
    the identity before any linear algebra sees it.  ``Frame`` and the
    sample screen of ``draw_samples`` share this test."""
    m = f_jet.shape[-2] - 1
    eye = np.eye(m + 1)
    b0 = np.concatenate([f_jet[..., 1 : m + 1], C_jet[..., :1]], axis=-1)
    finite = np.isfinite(b0).all(axis=(-2, -1))
    cond = np.where(finite, np.linalg.cond(np.where(finite[..., None, None], b0, eye)), np.nan)
    faults = no_failures(cond.shape)
    bad = record_failures(
        faults,
        ~(cond <= FRAME_COND_LIMIT),
        lambda k: DegenerateFrame(f"frame condition number {cond.flat[k]:.3g}"),
    )
    return np.where(bad[..., None, None], eye, b0), cond, faults


class Frame:
    """The frame B = [e_1 .. e_m | C] as first-order jets, and its decompositions.

    Built from order-3 jets of f and C in ``space``, at one chart point or at
    a stack of them: every array keeps the leading sample axes of f and C.
    ``tangent2`` keeps e_i = d_i f as order-2 jets for the one further
    derivative the structure equations take (d_j e_i); everything downstream
    lives in the order-1 space ``self.space``, where ``tangent_jets`` and
    ``C_jet`` are the truncated e_i and C.  The inverse of B in that jet
    algebra is B0^{-1} corrected by a Neumann series in the nilpotent part,
    which terminates after one term at order 1, so decompositions carry
    first derivatives exactly.

    ``faults`` holds each sample's DegenerateFrame (None where the frame is
    usable); such a sample goes on as the flat frame of the plane
    x_{m+1} = 0 with C = e_{m+1} (B = I, no curvature), which keeps every
    later step finite.  A single point raises it.
    """

    def __init__(self, space: JetSpace, f_jet: np.ndarray, C_jet: np.ndarray):
        m = space.num_vars
        dim = m + 1
        if f_jet.shape[-2:] != (dim, space.ncoeff) or C_jet.shape != f_jet.shape:
            raise ShapeError(
                f"immersion/transversal jets must be (..., {dim}, {space.ncoeff})"
            )
        self.space = jet_space(m, order=1)
        self.m = m
        self.dim = dim
        self.b0, self.cond, self.faults = _frame_value(f_jet, C_jet)
        flat = failed(self.faults)[..., None, None]
        f_jet = np.where(flat, np.concatenate([space.seeds(np.zeros(m)), space.const([0.0])]), f_jet)
        C_jet = np.where(flat, space.const(np.eye(dim)[m]), C_jet)
        self.tangent2 = space.derivs(f_jet, 2)  # (..., dim, m, ncoeff of order 2)
        self.dC_jets = space.derivs(C_jet, 1)  # d_i C: (..., dim, m, ncoeff of order 1)
        k = self.space.ncoeff
        self.tangent_jets = self.tangent2[..., :k]
        self.C_jet = C_jet[..., :k]
        nilpotent = np.concatenate([self.tangent_jets, self.C_jet[..., None, :]], axis=-2)
        nilpotent[..., 0] = 0.0
        self._neumann = self._solve(nilpotent)

    def _solve(self, v: np.ndarray) -> np.ndarray:
        """B0^{-1} v for jet vectors v of shape (..., dim, K, ncoeff)."""
        lead = self.b0.shape[:-2]
        return np.linalg.solve(self.b0, v.reshape(lead + (self.dim, -1))).reshape(v.shape)

    def decompose_jets(self, v: np.ndarray):
        """Split first-order jet vectors ``(dim, ..., ncoeff)``, behind the
        frame's sample axes, into tangential coordinates ``(m, ..., ncoeff)``
        and the transversal coefficient ``(..., ncoeff)``."""
        lead = self.b0.shape[:-2]
        x = self._solve(v.reshape(lead + (self.dim, -1, v.shape[-1])))
        x = (x - self.space.matvec(self._neumann, x)).reshape(v.shape)
        at = (slice(None),) * len(lead)
        return x[at + (slice(None, self.m),)], x[at + (self.m,)]


# ----------------------------------------------------------------------
# induced quantities


@dataclass
class InducedData:
    """Connection/form/shape data with first chart derivatives, at one chart
    point or at each point of a stack.

    Index conventions: ``Gamma[k, i, j]`` is the e_k coefficient of D_i e_j,
    ``S[k, j]`` the e_k coefficient of -D_j C, ``dX[l, ...]`` the derivative
    of X along chart direction l; a stack puts its sample axis in front of
    these.  ``faults`` holds each sample's ChartLeak or DegenerateFrame (None
    where the sample is usable); such a sample carries harmless values.
    """

    n: int
    u: np.ndarray
    frame: Frame
    Gamma: np.ndarray
    h: np.ndarray
    S: np.ndarray
    tau: np.ndarray
    dGamma: np.ndarray
    dh: np.ndarray
    dS: np.ndarray
    dtau_raw: np.ndarray
    faults: np.ndarray


@dataclass
class DerivedTensors:
    """Curvature, covariant derivative of h, cubic form, d tau (behind any
    sample axes of the ``InducedData`` they come from)."""

    R_curv: np.ndarray  # [l, i, j, k]
    nabla_h: np.ndarray  # [i, j, k]
    Q: np.ndarray  # [i, j, k]
    dtau: np.ndarray  # [i, j]


def induced_data(scene: ImmersionScene, u: np.ndarray) -> InducedData:
    """Gamma, h, S, tau and their first derivatives at a chart point ``(m,)``,
    or at every point of a ``(S, m)`` stack in one pass.  A single point
    raises its ChartLeak or DegenerateFrame; a stack keeps them in
    ``faults``."""
    u = np.asarray(u, dtype=float)
    faults = _chart_faults(scene, u)
    outside = failed(faults)
    # A point outside the chart is evaluated at the chart centre instead.
    f, c = eval_immersion(scene, np.where(outside[..., None], 0.0, u))
    space3 = jet_space(scene.chart_dim)
    frame = Frame(space3, f, c)
    space = frame.space
    m = frame.m
    # d_j e_i for i <= j, then d_j C, as first-order jets.
    iu, ju = np.triu_indices(m)
    npairs = len(iu)
    d_tangent = space3.derivs(frame.tangent2, 1)  # [..., r, i, j, coeff]
    rhs = np.concatenate([d_tangent[..., iu, ju, :], frame.dC_jets], axis=-2)
    tang, transv = frame.decompose_jets(rhs)

    lead = u.shape[:-1]
    gamma_j = np.zeros(lead + (m, m, m, space.ncoeff))
    h_j = np.zeros(lead + (m, m, space.ncoeff))
    gamma_j[..., iu, ju, :] = gamma_j[..., ju, iu, :] = tang[..., :npairs, :]
    h_j[..., iu, ju, :] = h_j[..., ju, iu, :] = transv[..., :npairs, :]
    s_j = -tang[..., npairs:, :]
    tau_j = transv[..., npairs:, :]

    return InducedData(
        n=scene.n,
        u=u,
        frame=frame,
        Gamma=gamma_j[..., 0],
        h=h_j[..., 0],
        S=s_j[..., 0],
        tau=tau_j[..., 0],
        dGamma=np.moveaxis(space.grad(gamma_j), -1, -4),
        dh=np.moveaxis(space.grad(h_j), -1, -3),
        dS=np.moveaxis(space.grad(s_j), -1, -3),
        dtau_raw=np.moveaxis(space.grad(tau_j), -1, -2),
        faults=np.where(outside, faults, frame.faults),
    )


def h_is_degenerate(h: np.ndarray):
    """Whether h is degenerate: |det h| below ``H_DET_FLOOR`` relative to
    max|h|^m (a bool array over a stack).  The package's one such test;
    everything that needs h^{-1} reads it."""
    scale = np.max(np.abs(h), axis=(-2, -1))
    unit = np.where(scale == 0.0, 1.0, scale)[..., None, None]
    bad = (scale == 0.0) | (np.abs(np.linalg.det(h / unit)) < H_DET_FLOOR)
    return bool(bad) if h.ndim == 2 else bad


def derive_tensors(ind: InducedData) -> DerivedTensors:
    g, dg, h = ind.Gamma, ind.dGamma, ind.h
    r_curv = (
        np.einsum("...iljk->...lijk", dg)
        - np.einsum("...jlik->...lijk", dg)
        + np.einsum("...lip,...pjk->...lijk", g, g)
        - np.einsum("...ljp,...pik->...lijk", g, g)
    )
    nabla_h = (
        ind.dh
        - np.einsum("...pij,...pk->...ijk", g, h)
        - np.einsum("...pik,...jp->...ijk", g, h)
    )
    q = nabla_h + ind.tau[..., :, None, None] * h[..., None, :, :]
    dtau = 0.5 * (ind.dtau_raw - np.swapaxes(ind.dtau_raw, -1, -2))
    return DerivedTensors(R_curv=r_curv, nabla_h=nabla_h, Q=q, dtau=dtau)


def fundamental_residuals(scene: ImmersionScene, u: np.ndarray) -> dict:
    """Residual tensors of the Gauss, Codazzi (h and S) and Ricci equations
    at a chart point or a stack, as ``residuals_from_data`` returns them.

    These hold for any transversal field, so they are the master self-test of
    the differentiation and decomposition machinery.
    """
    ind = induced_data(scene, u)
    return residuals_from_data(ind, derive_tensors(ind))


def residuals_from_data(ind: InducedData, der: DerivedTensors) -> dict:
    """``{gauss, codazzi_h, codazzi_s, ricci}``: the raw residual tensor of
    each structure equation."""
    h, s, g = ind.h, ind.S, ind.Gamma
    gauss = der.R_curv - (
        np.einsum("...jk,...li->...lijk", h, s) - np.einsum("...ik,...lj->...lijk", h, s)
    )
    codazzi_h = der.Q - np.swapaxes(der.Q, -3, -2)
    nabla_s = (
        ind.dS
        + np.einsum("...lip,...pj->...ilj", g, s)
        - np.einsum("...pij,...lp->...ilj", g, s)
    )
    t = nabla_s - ind.tau[..., :, None, None] * s[..., None, :, :]
    codazzi_s = t - np.einsum("...ilj->...jli", t)
    hs = h @ s
    ricci = hs - np.swapaxes(hs, -1, -2) - 2.0 * der.dtau
    return {"gauss": gauss, "codazzi_h": codazzi_h, "codazzi_s": codazzi_s, "ricci": ricci}


# ----------------------------------------------------------------------
# sampling


def _chart_quality(scene: ImmersionScene, u: np.ndarray) -> np.ndarray:
    """y'Ay at each chart point of ``u`` (..., m) of a radial chart, 1.0 for
    the other families.  Far out in a huge box it overflows, quietly, to a
    non-finite value, which the sample screen rejects."""
    if scene.family in ("quadric_radial", "perturbed_transversal"):
        spec: QuadricSpec = scene.params["quadric"]
        with np.errstate(over="ignore", invalid="ignore"):
            y = scene.params["base_point"] + u @ scene.params["basis"]
            return np.einsum("...r,rs,...s->...", y, spec.A, y)
    return np.ones(u.shape[:-1])


def draw_samples(
    scene: ImmersionScene,
    seed: int,
    num_samples: int,
    sample_box: float = DEFAULT_SAMPLE_BOX,
) -> list:
    """Seeded chart points in [-box, box]^m, rejecting points that leave the
    chart (quadric value <= 0.1, or not finite) or whose frame value is not
    finite or too ill-conditioned.

    Candidates are screened in blocks of as many as are still missing: one
    order-1 evaluation of f and C per block, which fixes the frame values B0
    exactly, and one stacked condition test, the one ``Frame`` applies.  The
    first ``num_samples`` that pass are kept in draw order, so the points
    are those a one-by-one screen keeps, within the same candidate budget."""
    if num_samples < 1:
        raise ShapeError(f"num_samples must be >= 1, got {num_samples}")
    rng = np.random.default_rng([seed, 2])
    m = scene.chart_dim
    samples = []
    budget = 50 * num_samples + 100
    while len(samples) < num_samples and budget > 0:
        block = rng.uniform(-sample_box, sample_box, size=(min(budget, num_samples - len(samples)), m))
        budget -= len(block)
        q = _chart_quality(scene, block)
        block = block[np.isfinite(q) & (q > CHART_Q_MIN)]
        if not len(block):
            continue
        # A huge box overflows far out; the frame test rejects what it spoils.
        with np.errstate(over="ignore", invalid="ignore"):
            f, c = eval_immersion(scene, block, order=1)
        _, _, faults = _frame_value(f, c)
        samples += [u for u, fault in zip(block, faults) if fault is None]
    if not samples:
        raise NoAdmissibleSamples("no admissible sample points found in the chart box")
    return samples


def _attach_samples(scene, seed, num_samples, sample_box, samples):
    if samples is not None:
        scene.samples = [np.asarray(s, dtype=float) for s in samples]
    else:
        scene.samples = draw_samples(scene, seed, num_samples, sample_box)
