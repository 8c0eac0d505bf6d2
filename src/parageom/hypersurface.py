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
array, so a scene is analysed once, on the ``(S, m)`` array of its samples.
A row that fails (outside the chart, an ill-conditioned frame) is kept in
the ``faults`` record of the batch with the message a single point raises,
and carries harmless values so that it stops no other row.  ``induced_data``
tests each point against the chart once per analysis; ``eval_immersion``
only guards its own square root.  A swept scene, whose epsilon is a column
``(E, 1)``, takes its S samples once and gives E * S rows, row e*S + k
being sample k at epsilon[e].  Sampling screens candidate chart points in
blocks with order-1 jets of f and C, since the frame value B0 is all the
screen tests: it builds no order-3 jet and no ``Frame``, and each kept
point is evaluated at order 3 once, by its scene's analysis.

From those come the curvature tensor, the covariant derivative of h, the
totally symmetric cubic form and the exterior derivative of tau, plus the
residuals of the four structure equations (Gauss, both Codazzi equations,
Ricci) that hold for *any* transversal field and act as the engine's
self-test.

Built-in immersion families:

* ``hyperbola``             — (cosh t, sinh t) with the position transversal.
* ``quadric_radial``        — x(u) = y/sqrt(y'Ay), y = x0 + sum u^i v_i, on a
                              centered quadric x'Ax = 1, transversal C = x.
                              y'Ay and f = y s, s = (y'Ay)^(-1/2), are
                              products with the affine y (``affine_mul``).
* ``perturbed_transversal`` — same immersion, C = x + eps * W with W a field
                              tangent to the J-invariant distribution, so C
                              stays J-tangent but the structure degrades
                              controllably with eps.
* ``explicit_graph``        — polynomial graph immersion with a polynomial
                              transversal; the anything-goes family for
                              self-tests and negative paths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    BasePointNotFound,
    ChartLeak,
    DegenerateFrame,
    DegenerateMetric,
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
# An eigenvalue of h within this share of max|eigenvalue| counts as zero (HFactor).
H_EIG_FLOOR = 1e-5
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
        powers = {}  # (variable, exponent) -> jet, each computed once
        out = np.zeros(seeds.shape[:-2] + (space.ncoeff,))
        for alpha, c in self.terms:
            term = None
            for i, a in enumerate(alpha):
                if not a:
                    continue
                if (i, a) not in powers:
                    # Square-and-multiply from the leading bit down.
                    u = p = seeds[..., i, :]
                    for bit in bin(a)[3:]:
                        p = space.mul(p, p)
                        if bit == "1":
                            p = space.mul(p, u)
                    powers[i, a] = p
                term = c * powers[i, a] if term is None else space.mul(term, powers[i, a])
            out += space.const(c) if term is None else term
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
    samples: np.ndarray | None = None  # (S, m) chart points; None: no rows
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ShapeError(f"unknown immersion family {self.family!r}")
        if self.n < 0:
            raise ShapeError(f"n must be >= 0, got {self.n}")
        self.samples = np.empty((0, self.chart_dim)) if self.samples is None else self.samples

    @property
    def chart_dim(self) -> int:
        return 2 * self.n + 1


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


def radial_chart(
    spec: QuadricSpec,
    seed: int = 0,
    base_point: np.ndarray | None = None,
    basis: np.ndarray | None = None,
) -> dict:
    """The params ``{quadric, base_point, basis}`` of a radial chart on the
    quadric of ``spec``: the given base point x0, or one found by the seeded
    search of ``find_base_point``, and the given tangent basis, or an
    orthonormal one (rows) of the plane {v : (A x0) . v = 0}.  Raises
    ShapeError unless x0'Ax0 = 1 and the basis is 2n + 1 rows that span
    that plane."""
    if base_point is None:
        base_point = find_base_point(spec, np.random.default_rng([seed, 1]))
    x0 = np.asarray(base_point, dtype=float)
    # A huge x0 overflows here, quietly: the check rejects it.
    with np.errstate(over="ignore", invalid="ignore"):
        if not abs(float(x0 @ spec.A @ x0) - 1.0) <= 1e-9:
            raise ShapeError("base point does not satisfy x'Ax = 1")
    w = spec.A @ x0
    v = np.linalg.svd(w[None, :])[2][1:] if basis is None else np.asarray(basis, dtype=float)
    m = 2 * spec.n + 1
    if v.shape != (m, spec.ambient_dim):
        raise ShapeError(f"tangent basis shape {v.shape} != ({m}, {spec.ambient_dim})")
    # Relative to |A x0|, so that the test does not depend on the scale of A.
    if np.max(np.abs(v @ w)) > 1e-9 * np.linalg.norm(w):
        raise ShapeError("tangent basis is not orthogonal to A x0")
    if np.linalg.matrix_rank(v, tol=1e-10) != m:
        raise ShapeError("tangent basis does not span the tangent plane")
    return {"quadric": spec, "base_point": x0, "basis": v}


def _scene(
    family: str,
    n: int,
    params: dict,
    *,
    seed: int = 0,
    num_samples: int = DEFAULT_NUM_SAMPLES,
    sample_box: float = DEFAULT_SAMPLE_BOX,
    tolerances: dict | None = None,
    samples=None,
) -> ImmersionScene:
    """The scene of every family: its ``tolerances`` (``DEFAULT_TOLERANCES``
    where None) and the given ``samples``, or ``num_samples`` points drawn
    from ``seed`` in ``[-sample_box, sample_box]^m``.  Its keywords are the
    scene keywords that every family constructor takes."""
    scene = ImmersionScene(family, n, params, tolerances=dict(tolerances or DEFAULT_TOLERANCES))
    if samples is None:
        scene.samples = draw_samples(scene, seed, num_samples, sample_box)
    else:
        scene.samples = np.array(samples, dtype=float)
    return scene


def hyperbola_scene(**kw) -> ImmersionScene:
    """(cosh t, sinh t) with the position transversal; ``kw`` are the scene
    keywords of ``_scene``."""
    return _scene("hyperbola", 0, {}, **kw)


def quadric_scene(
    spec: QuadricSpec,
    seed: int = 0,
    base_point: np.ndarray | None = None,
    basis: np.ndarray | None = None,
    **kw,
) -> ImmersionScene:
    """Radial chart on a centered quadric (``radial_chart``) with the
    position transversal C = x."""
    chart = radial_chart(spec, seed, base_point, basis)
    return _scene("quadric_radial", spec.n, chart, seed=seed, **kw)


def perturbed_scene(
    spec: QuadricSpec,
    epsilon: float,
    seed: int = 0,
    base_point: np.ndarray | None = None,
    basis: np.ndarray | None = None,
    direction: np.ndarray | None = None,
    **kw,
) -> ImmersionScene:
    """Quadric immersion with transversal C = x + eps * W.

    W is the projection of a fixed ambient direction onto the J-invariant
    tangent distribution, so C stays J-tangent for every eps while the
    metric compatibility degrades linearly with eps.  The direction is
    normalized so that |W| = 1 at the base point.
    """
    if spec.n < 1:
        # ker(eta) is {0} at n = 0: there is no J-invariant direction to add.
        raise GenerationError("perturbed_transversal scenes require n >= 1")
    chart = radial_chart(spec, seed, base_point, basis)
    if direction is None:
        dir_rng = np.random.default_rng([seed, 3])
        for _ in range(100):
            w = dir_rng.normal(size=spec.ambient_dim)
            norm = float(np.linalg.norm(_project_to_invariant(spec.A, chart["base_point"], w)))
            if norm > 0.3:
                direction = w / norm
                break
        else:
            raise GenerationError("could not find a usable perturbation direction")
    params = {**chart, "epsilon": float(epsilon), "direction": np.asarray(direction, dtype=float)}
    return _scene("perturbed_transversal", spec.n, params, seed=seed, **kw)


def _project_to_invariant(a_mat: np.ndarray, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Project an ambient vector onto the J-invariant part of the tangent
    plane at a quadric point (numeric version of the jet formula below)."""
    jx = apply_J(x)
    return w - float(x @ a_mat @ w) * x - float(x @ a_mat @ apply_J(w)) * jx


def graph_scene(graph: Polynomial, transversal: list | None = None, **kw) -> ImmersionScene:
    """Graph immersion u -> (u, g(u)) with a polynomial transversal field.

    The default transversal is the constant last coordinate vector.
    """
    m = graph.num_vars
    if m % 2 != 1:
        raise ShapeError(f"graph chart dimension must be odd, got {m}")
    if transversal is None:
        transversal = [Polynomial(m, [((0,) * m, float(r == m))]) for r in range(m + 1)]
    if len(transversal) != m + 1:
        raise ShapeError(f"transversal needs {m + 1} components, got {len(transversal)}")
    params = {"graph": graph, "transversal": list(transversal)}
    return _scene("explicit_graph", (m - 1) // 2, params, **kw)


def random_graph_scene(n: int, seed: int, **kw) -> ImmersionScene:
    """Nondegenerate random cubic graph with a mildly perturbed transversal.

    The quadratic part has Hessian diag(+-1) so h stays invertible on small
    sample boxes; cubic terms make the connection and cubic form genuinely
    position-dependent.
    """
    m = 2 * n + 1
    rng = np.random.default_rng([seed, 4])
    signs = rng.choice([-1.0, 1.0], size=m)
    eye = np.eye(m, dtype=int)
    terms = list(zip(2 * eye, 0.5 * signs))
    terms += [
        (np.bincount(idx, minlength=m), GRAPH_CUBIC_SCALE * rng.uniform(-1.0, 1.0))
        for idx in itertools.combinations_with_replacement(range(m), 3)
    ]
    transversal = [
        Polynomial(
            m, [((0,) * m, float(r == m))] + [(e, 0.2 * rng.uniform(-1.0, 1.0)) for e in eye]
        )
        for r in range(m + 1)
    ]
    return graph_scene(Polynomial(m, terms), transversal, seed=seed, **kw)


# ----------------------------------------------------------------------
# evaluation


def eval_immersion(scene: ImmersionScene, u: np.ndarray, order: int = MAX_ORDER):
    """Jets of the immersion and the transversal at a chart point, of total
    degree <= ``order``.

    Returns ``(f, C)`` as ``(ambient_dim, ncoeff)`` coefficient arrays, or
    ``(..., ambient_dim, ncoeff)`` for a ``(..., m)`` stack of points.  The
    coefficients of degree <= 1 do not depend on ``order``.  The radial
    chart guards the value of its own jet q = y'Ay before the square root:
    a single point where it is <= 0 raises ChartLeak, and a row of a stack
    carries NaN, which ``Frame`` keeps as its DegenerateFrame.  A perturbed
    scene's ``params["epsilon"]`` is a scalar or an array that broadcasts
    against the stack's shape ``u.shape[:-1]``, so one call can evaluate
    ``C = x + eps W`` at several epsilons: one value per point, or a column
    ``(E, 1)`` against ``S`` points, which evaluates f and W once per point
    and gives ``(E, S, ...)`` for both f and C.  A perturbed scene's f is a
    read-only view, broadcast to the shape of C.
    """
    u = np.asarray(u, dtype=float)
    m = scene.chart_dim
    space = jet_space(m, order)

    if scene.family == "hyperbola":
        t = space.seeds(u)[..., 0, :]
        f = np.stack([space.cosh(t), space.sinh(t)], axis=-2)
        return f, f.copy()

    if scene.family in ("quadric_radial", "perturbed_transversal"):
        spec: QuadricSpec = scene.params["quadric"]
        x0 = scene.params["base_point"]
        basis = scene.params["basis"]
        # y = x0 + V u and Ay are affine: order-1 jets, m + 1 coefficients.  So
        # q = y'Ay is a product of degree 2, on its k leading coefficients.
        lin = jet_space(m, 1)
        y = lin.const(x0) + np.einsum("ir,...ic->...rc", basis, lin.seeds(u))
        k = min((m + 1) * (m + 2) // 2, space.ncoeff)
        ay = np.zeros(y.shape[:-1] + (k,))
        ay[..., : m + 1] = np.einsum("rs,...sc->...rc", spec.A, y)
        q = np.zeros(u.shape[:-1] + (space.ncoeff,))
        q[..., :k] = space.affine_mul(y[..., None, :], ay).sum(axis=(-3, -2))
        q0 = q[..., 0]
        _chart_leaks(no_failures(q0.shape), q0)  # raises for a single point only
        # s = q^(-1/2) about q0, r = q0^(-1/2), NaN on a stack's row outside the
        # chart; products, not powers, so a row rounds as a single point does.
        r = 1.0 / np.sqrt(np.where(q0 > 0.0, q0, np.nan))
        t = r * r
        s = space.compose(q, r, -0.5 * r * t, 0.375 * r * t * t, -0.3125 * r * t * t * t)
        f = space.affine_mul(y, s)
        if scene.family == "quadric_radial":
            return f, f.copy()
        eps = np.asarray(scene.params["epsilon"])[..., None, None]
        w = scene.params["direction"]
        s1 = np.einsum("r,...rc->...c", spec.A @ w, f)
        s2 = np.einsum("r,...rc->...c", spec.A @ apply_J(w), f)
        # W = w - s1 f - s2 J f, with s1 f = y (s1 s) and s2 J f = J y (s2 s).
        w_field = space.const(w) - space.affine_mul(y, space.mul(s1, s))
        w_field -= space.affine_mul(apply_J(y, axis=-2), space.mul(s2, s))
        c = f + eps * w_field
        return np.broadcast_to(f, c.shape), c

    # explicit_graph
    graph: Polynomial = scene.params["graph"]
    seeds = space.seeds(u)
    f = np.zeros(u.shape[:-1] + (m + 1, space.ncoeff))
    f[..., :m, :] = seeds
    f[..., m, :] = graph.eval_jets(space, seeds)
    c = np.stack([p.eval_jets(space, seeds) for p in scene.params["transversal"]], axis=-2)
    return f, c


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
    The frame keeps only order-1 jets in ``self.space``, read straight from
    f and C: ``tangent_jets`` e_i = d_i f, ``d_tangent`` d_j e_i for i <= j
    (``np.triu_indices`` order, by ``JetSpace.second_derivs``), ``dC_jets``
    d_i C and ``C_jet`` C.  ``b0_inv`` is the inverse of the frame value B0,
    computed once per frame, so every decomposition is a matmul.  Write
    B = B0 + N with N the gradient (nilpotent) part; at order 1 the inverse
    of B in the jet algebra is exactly B0^{-1} - B0^{-1} N B0^{-1}, so
    decompositions carry first derivatives exactly.

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
        self.b0_inv = np.linalg.inv(self.b0)
        flat = failed(self.faults)[..., None, None, None]
        self.tangent_jets = np.where(flat, self.space.const(np.eye(dim, m)), space.derivs(f_jet, 1))
        self.d_tangent = np.where(flat, 0.0, space.second_derivs(f_jet))
        self.dC_jets = np.where(flat, 0.0, space.derivs(C_jet, 1))
        self.C_jet = np.where(flat[..., 0], self.space.const(np.eye(dim)[m]), C_jet[..., : m + 1])
        nilpotent = np.concatenate([self.tangent_jets, self.C_jet[..., None, :]], axis=-2)
        nilpotent[..., 0] = 0.0
        self._neumann = self._solve(nilpotent)

    def _solve(self, v: np.ndarray) -> np.ndarray:
        """B0^{-1} v for jet vectors v of shape (..., dim, K, ncoeff)."""
        lead = self.b0.shape[:-2]
        return (self.b0_inv @ v.reshape(lead + (self.dim, -1))).reshape(v.shape)

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
    these.  ``J_frame[k, a]`` is the coefficient of column k of the frame
    B = [e_1 .. e_m | C] in J applied to column a (B^{-1} J B), an order-1
    jet from which ``paracontact.induced_structure`` reads (phi, xi, eta).
    ``b0`` and ``cond`` are the frame value and its condition number.
    ``faults`` holds each sample's ChartLeak or DegenerateFrame (None where
    the sample is usable); such a sample carries harmless values.
    """

    n: int
    u: np.ndarray
    b0: np.ndarray
    cond: np.ndarray
    Gamma: np.ndarray
    h: np.ndarray
    S: np.ndarray
    tau: np.ndarray
    dGamma: np.ndarray
    dh: np.ndarray
    dS: np.ndarray
    dtau_raw: np.ndarray
    J_frame: np.ndarray
    faults: np.ndarray

    @cached_property
    def h_factor(self) -> HFactor:
        """h's factor, cached per instance: a ``replace`` copy factors its own h."""
        return HFactor(self.h)


class HFactor:
    """h's symmetric part as V diag(vals) V^T, for one h or each h of a
    stack: the one eigendecomposition behind h's degeneracy test, signature,
    |h| and h^{-1}.  An eigenvalue counts as zero where |lambda| <=
    ``H_EIG_FLOOR`` max|lambda|, and h is ``degenerate`` where one does or
    where h is not finite (such an h never reaches ``eigh``).  ``ratio`` is
    min|lambda| / max|lambda|; ``signature`` counts the non-zero eigenvalues
    by sign (a tuple for one h).  A degenerate h of a stack carries the
    identity's eigenpairs; a single one raises its DegenerateMetric in
    ``inverse`` and ``abs``."""

    def __init__(self, h: np.ndarray):
        eye = np.eye(h.shape[-1])
        finite = np.isfinite(h).all(axis=(-2, -1))
        sym = 0.5 * (h + np.swapaxes(h, -1, -2))
        vals, vecs = np.linalg.eigh(np.where(finite[..., None, None], sym, eye))
        vals = np.where(finite[..., None], vals, np.nan)
        top = np.abs(vals).max(axis=-1)
        self.ratio = np.abs(vals).min(axis=-1) / np.where(top == 0.0, 1.0, top)
        thr = H_EIG_FLOOR * top[..., None]
        counts = np.stack([(vals > thr).sum(-1), (vals < -thr).sum(-1)], -1)
        self.signature = tuple(int(k) for k in counts) if h.ndim == 2 else counts
        self.degenerate = counts.sum(-1) < h.shape[-1]
        self.vals = np.where(self.degenerate[..., None], 1.0, vals)
        self.vecs = np.where(self.degenerate[..., None, None], eye, vecs)

    def reason(self, idx=()) -> str:
        """Why the h (of sample ``idx`` of a stack) is degenerate."""
        return f"h eigenvalue ratio {self.ratio[idx]:.3g} below floor {H_EIG_FLOOR:g}"

    def inverse(self) -> np.ndarray:
        """h^{-1} = V diag(1 / vals) V^T."""
        return self._compose(1.0 / self.vals)

    def abs(self) -> np.ndarray:
        """|h| = V diag(|vals|) V^T, positive definite."""
        return self._compose(np.abs(self.vals))

    def _compose(self, diag: np.ndarray) -> np.ndarray:
        if self.vals.ndim == 1 and self.degenerate:
            raise DegenerateMetric(self.reason())
        return (self.vecs * diag[..., None, :]) @ np.swapaxes(self.vecs, -1, -2)


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
    or at every point of a ``(S, m)`` stack in one pass.  This is the chart
    test of an analysis: a point outside the radial chart (y'Ay <= 0) gets a
    ChartLeak.  A single point raises its ChartLeak or DegenerateFrame; a
    stack keeps them in ``faults``.

    A perturbed scene whose epsilon is a column ``(E, 1)`` (a swept scene)
    takes the S points once and returns E * S rows, row e*S + k being point
    k at epsilon[e], with ``u`` and the chart faults tiled to match; f and W
    are evaluated once per point, and only C once per row."""
    u = np.asarray(u, dtype=float)
    if u.shape[-1:] != (scene.chart_dim,):
        raise ShapeError(f"chart point shape {u.shape} != (..., {scene.chart_dim})")
    q = _chart_quality(scene, u)
    faults = no_failures(q.shape)
    outside = _chart_leaks(faults, q)
    f, c = eval_immersion(scene, u)
    if np.ndim(scene.params.get("epsilon")) == 2:
        rows = len(c)
        f, c = f.reshape((-1,) + f.shape[-2:]), c.reshape((-1,) + c.shape[-2:])
        u, faults, outside = np.tile(u, (rows, 1)), np.tile(faults, rows), np.tile(outside, rows)
    frame = Frame(jet_space(scene.chart_dim), f, c)
    m = frame.m
    iu, ju = np.triu_indices(m)
    npairs = len(iu)
    # One decomposition of d_j e_i (i <= j), d_i C, then J e_i and J C from
    # column j0 on.
    je, jc = apply_J(frame.tangent_jets, axis=-3), apply_J(frame.C_jet, axis=-2)[..., None, :]
    rhs = np.concatenate([frame.d_tangent, frame.dC_jets, je, jc], axis=-2)
    tang, transv = frame.decompose_jets(rhs)
    j0 = npairs + m
    j_frame = np.concatenate([tang[..., j0:, :], transv[..., None, j0:, :]], axis=-3)

    # Each jet splits into its value and its gradient [l, ...]: with the
    # coefficient axis in front of the tensor axes both are slices, and each
    # field is copied out of one into a contiguous array of its own.
    tang = np.moveaxis(tang[..., :j0, :], -1, -3)  # [..., coeff, k, pair]
    transv = np.moveaxis(transv[..., :j0, :], -1, -2)  # [..., coeff, pair]
    # pair[i, j] is the pair of (min(i, j), max(i, j)): Gamma and h are symmetric.
    pair = np.empty((m, m), dtype=np.intp)
    pair[iu, ju] = pair[ju, iu] = np.arange(npairs)

    return InducedData(
        n=scene.n,
        u=u,
        b0=frame.b0,
        cond=frame.cond,
        Gamma=np.take(tang[..., 0, :, :], pair, axis=-1),
        h=np.take(transv[..., 0, :], pair, axis=-1),
        S=np.negative(tang[..., 0, :, npairs:], order="C"),
        tau=transv[..., 0, npairs:].copy(),
        dGamma=np.take(tang[..., 1:, :, :], pair, axis=-1),
        dh=np.take(transv[..., 1:, :], pair, axis=-1),
        dS=np.negative(tang[..., 1:, :, npairs:], order="C"),
        dtau_raw=transv[..., 1:, npairs:].copy(),
        J_frame=j_frame,
        faults=np.where(outside, faults, frame.faults),
    )


def derive_tensors(ind: InducedData) -> DerivedTensors:
    g, dg, h = ind.Gamma, ind.dGamma, ind.h
    lead, m = g.shape[:-3], g.shape[-1]
    # gg[l, i, j, k] = sum_p Gamma[l, i, p] Gamma[p, j, k] gives both
    # Gamma.Gamma terms of R, the second with i and j swapped.
    gg = (g.reshape(lead + (m * m, m)) @ g.reshape(lead + (m, m * m))).reshape(dg.shape)
    r_curv = (
        np.swapaxes(dg, -4, -3)
        - np.einsum("...jlik->...lijk", dg)
        + gg
        - np.swapaxes(gg, -3, -2)
    )
    # sum_p Gamma[p, i, j] h[p, k] and sum_p h[j, p] Gamma[p, i, k], as [i, j, k].
    g_flat = g.reshape(lead + (m, m * m))
    gh = (np.swapaxes(g_flat, -1, -2) @ h).reshape(g.shape)
    hg = np.swapaxes((h @ g_flat).reshape(g.shape), -3, -2)
    nabla_h = ind.dh - gh - hg
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
    lead, m = g.shape[:-3], g.shape[-1]
    gauss = der.R_curv - (
        s[..., :, :, None, None] * h[..., None, None, :, :]
        - s[..., :, None, :, None] * h[..., None, :, None, :]
    )
    codazzi_h = der.Q - np.swapaxes(der.Q, -3, -2)
    # sum_p Gamma[l, i, p] S[p, j] - S[l, p] Gamma[p, i, j], as [l, i, j].
    gs = g @ s[..., None, :, :] - (s @ g.reshape(lead + (m, m * m))).reshape(g.shape)
    nabla_s = ind.dS + np.swapaxes(gs, -3, -2)
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


def _chart_leaks(faults: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``record_failures`` of a ChartLeak at each quadric value ``q`` <= 0."""
    message = "quadric value {:.3g} <= 0 at chart point"
    return record_failures(faults, q <= 0.0, lambda k: ChartLeak(message.format(q.flat[k])))


def draw_samples(
    scene: ImmersionScene,
    seed: int,
    num_samples: int,
    sample_box: float = DEFAULT_SAMPLE_BOX,
) -> np.ndarray:
    """Seeded chart points in [-box, box]^m, rejecting points that leave the
    chart (quadric value <= 0.1, or not finite) or whose frame value is not
    finite or too ill-conditioned.

    Candidates are screened in blocks of as many as are still missing: one
    order-1 evaluation of f and C per block, which fixes the frame values B0
    exactly, and one stacked condition test, the one ``Frame`` applies.  The
    first ``num_samples`` that pass are the rows, in draw order, of the
    ``(S, m)`` array returned: those a one-by-one screen keeps, within the
    same candidate budget."""
    if num_samples < 1:
        raise ShapeError(f"num_samples must be >= 1, got {num_samples}")
    rng = np.random.default_rng([seed, 2])
    m = scene.chart_dim
    samples = np.empty((0, m))
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
        samples = np.concatenate([samples, block[~failed(faults)]])
    if not len(samples):
        raise NoAdmissibleSamples("no admissible sample points found in the chart box")
    return samples
