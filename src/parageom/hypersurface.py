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
decompositions are exact truncated-polynomial linear solves.  Sampling
screens candidate chart points with order-1 jets of f and C, since the frame
value B0 is all the screen tests: it builds no order-3 jet and no ``Frame``,
and each kept point is evaluated at order 3 once, by its analysis.

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
    ShapeError,
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
        max_pow = [0] * self.num_vars
        for alpha, _ in self.terms:
            for i, a in enumerate(alpha):
                max_pow[i] = max(max_pow[i], a)
        powers = []
        for i in range(self.num_vars):
            p = [space.const(1.0)]
            for _ in range(max_pow[i]):
                p.append(space.mul(p[-1], seeds[i]))
            powers.append(p)
        out = np.zeros(space.ncoeff)
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

    Returns ``(f, C)`` as ``(ambient_dim, ncoeff)`` coefficient arrays.  The
    coefficients of degree <= 1 do not depend on ``order``.
    """
    u = np.asarray(u, dtype=float)
    m = scene.chart_dim
    if u.shape != (m,):
        raise ShapeError(f"chart point shape {u.shape} != ({m},)")
    space = jet_space(m, order)
    seeds = space.seeds(u)

    if scene.family == "hyperbola":
        t = seeds[0]
        f = np.stack([space.cosh(t), space.sinh(t)])
        return f, f.copy()

    if scene.family in ("quadric_radial", "perturbed_transversal"):
        spec: QuadricSpec = scene.params["quadric"]
        x0 = scene.params["base_point"]
        basis = scene.params["basis"]
        y = space.const(x0)
        y += np.einsum("ir,ic->rc", basis, seeds)
        ay = np.einsum("rs,sc->rc", spec.A, y)
        q = space.mul(y, ay).sum(axis=0)
        if q[0] <= 0.0:
            raise ChartLeak(f"quadric value {q[0]:.3g} <= 0 at chart point")
        f = space.mul(y, space.inv(space.sqrt(q)))
        if scene.family == "quadric_radial":
            return f, f.copy()
        eps = scene.params["epsilon"]
        w = scene.params["direction"]
        aw = spec.A @ w
        ajw = spec.A @ apply_J(w)
        s1 = np.einsum("r,rc->c", aw, f)
        s2 = np.einsum("r,rc->c", ajw, f)
        w_field = space.const(w) - space.mul(s1[None, :], f) - space.mul(
            s2[None, :], apply_J(f)
        )
        return f, f + eps * w_field

    # explicit_graph
    graph: Polynomial = scene.params["graph"]
    f = np.zeros((m + 1, space.ncoeff))
    f[:m] = seeds
    f[m] = graph.eval_jets(space, seeds)
    c = np.stack([p.eval_jets(space, seeds) for p in scene.params["transversal"]])
    return f, c


def _frame_value(f_jet: np.ndarray, C_jet: np.ndarray):
    """B0 = [d_1 f .. d_m f | C] at the chart point, from jets of f and C of
    any order, and its condition number.  Raises DegenerateFrame when B0 is
    too ill-conditioned to decompose against; ``Frame`` and the sample screen
    of ``draw_samples`` share this test."""
    m = f_jet.shape[0] - 1
    b0 = np.concatenate([f_jet[:, 1 : m + 1], C_jet[:, :1]], axis=1)
    cond = np.linalg.cond(b0)
    if not np.isfinite(cond) or cond > FRAME_COND_LIMIT:
        raise DegenerateFrame(f"frame condition number {cond:.3g}")
    return b0, float(cond)


class Frame:
    """The frame B = [e_1 .. e_m | C] as first-order jets, and its decompositions.

    Built from order-3 jets of f and C in ``space``.  ``tangent2`` keeps
    e_i = d_i f as order-2 jets for the one further derivative the structure
    equations take (d_j e_i); everything downstream lives in the order-1
    space ``self.space``, where ``tangent_jets`` and ``C_jet`` are the
    truncated e_i and C.  The inverse of B in that jet algebra is B0^{-1}
    corrected by a Neumann series in the nilpotent part, which terminates
    after one term at order 1, so decompositions carry first derivatives
    exactly.
    """

    def __init__(self, space: JetSpace, f_jet: np.ndarray, C_jet: np.ndarray):
        m = space.num_vars
        dim = m + 1
        if f_jet.shape != (dim, space.ncoeff) or C_jet.shape != (dim, space.ncoeff):
            raise ShapeError(
                f"immersion/transversal jets must be ({dim}, {space.ncoeff})"
            )
        self.space = jet_space(m, order=1)
        self.m = m
        self.dim = dim
        self.tangent2 = space.derivs(f_jet, 2)  # (dim, m, ncoeff of order 2)
        k = self.space.ncoeff
        self.tangent_jets = self.tangent2[..., :k]
        self.C_jet = C_jet[:, :k]
        self.b0, self.cond = _frame_value(f_jet, C_jet)
        nilpotent = np.concatenate([self.tangent_jets, self.C_jet[:, None, :]], axis=1)
        nilpotent[:, :, 0] = 0.0
        self._neumann = np.linalg.solve(
            self.b0, nilpotent.reshape(dim, -1)
        ).reshape(nilpotent.shape)

    def decompose_jets(self, v: np.ndarray):
        """Split a stack of first-order jet vectors (dim, ..., ncoeff) into
        tangential coordinates (m, ..., ncoeff) and the transversal coefficient."""
        x = np.linalg.solve(self.b0, v.reshape(self.dim, -1)).reshape(v.shape)
        x = x - self.space.matvec(self._neumann, x)
        return x[: self.m], x[self.m]


# ----------------------------------------------------------------------
# induced quantities


@dataclass
class InducedData:
    """Pointwise connection/form/shape data with first chart derivatives.

    Index conventions: ``Gamma[k, i, j]`` is the e_k coefficient of D_i e_j,
    ``S[k, j]`` the e_k coefficient of -D_j C, ``dX[l, ...]`` the derivative
    of X along chart direction l.
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


@dataclass
class DerivedTensors:
    """Curvature, covariant derivative of h, cubic form, d tau."""

    R_curv: np.ndarray  # [l, i, j, k]
    nabla_h: np.ndarray  # [i, j, k]
    Q: np.ndarray  # [i, j, k]
    dtau: np.ndarray  # [i, j]


def induced_data(scene: ImmersionScene, u: np.ndarray) -> InducedData:
    u = np.asarray(u, dtype=float)
    f, c = eval_immersion(scene, u)
    space3 = jet_space(scene.chart_dim)
    frame = Frame(space3, f, c)
    space = frame.space
    m = frame.m
    # d_j e_i for i <= j, then d_j C, as first-order jets.
    iu, ju = np.triu_indices(m)
    npairs = len(iu)
    d_tangent = space3.derivs(frame.tangent2, 1)  # [r, i, j, coeff]
    rhs = np.concatenate([d_tangent[:, iu, ju], space3.derivs(c, 1)], axis=1)
    tang, transv = frame.decompose_jets(rhs)

    gamma_j = np.zeros((m, m, m, space.ncoeff))
    h_j = np.zeros((m, m, space.ncoeff))
    gamma_j[:, iu, ju] = gamma_j[:, ju, iu] = tang[:, :npairs]
    h_j[iu, ju] = h_j[ju, iu] = transv[:npairs]
    s_j = -tang[:, npairs:]
    tau_j = transv[npairs:]

    return InducedData(
        n=scene.n,
        u=u,
        frame=frame,
        Gamma=gamma_j[..., 0],
        h=h_j[..., 0],
        S=s_j[..., 0],
        tau=tau_j[..., 0],
        dGamma=np.moveaxis(space.grad(gamma_j), -1, 0),
        dh=np.moveaxis(space.grad(h_j), -1, 0),
        dS=np.moveaxis(space.grad(s_j), -1, 0),
        dtau_raw=np.moveaxis(space.grad(tau_j), -1, 0),
    )


def h_is_degenerate(h: np.ndarray) -> bool:
    """Whether h is degenerate: |det h| below ``H_DET_FLOOR`` relative to
    max|h|^m.  The package's one such test; everything that needs h^{-1}
    raises DegenerateMetric on it."""
    scale = float(np.max(np.abs(h)))
    return scale == 0.0 or abs(float(np.linalg.det(h / scale))) < H_DET_FLOOR


def derive_tensors(ind: InducedData) -> DerivedTensors:
    g, dg = ind.Gamma, ind.dGamma
    r_curv = (
        dg.transpose(1, 0, 2, 3)
        - dg.transpose(1, 2, 0, 3)
        + np.einsum("lip,pjk->lijk", g, g)
        - np.einsum("ljp,pik->lijk", g, g)
    )
    nabla_h = (
        ind.dh
        - np.einsum("pij,pk->ijk", g, ind.h)
        - np.einsum("pik,jp->ijk", g, ind.h)
    )
    q = nabla_h + ind.tau[:, None, None] * ind.h[None, :, :]
    dtau = 0.5 * (ind.dtau_raw - ind.dtau_raw.T)
    return DerivedTensors(R_curv=r_curv, nabla_h=nabla_h, Q=q, dtau=dtau)


def fundamental_residuals(scene: ImmersionScene, u: np.ndarray):
    """Max-norm residuals of the Gauss, Codazzi (h and S) and Ricci equations.

    These hold for any transversal field, so they are the master self-test of
    the differentiation and decomposition machinery.
    """
    ind = induced_data(scene, u)
    return residuals_from_data(ind, derive_tensors(ind))


def residuals_from_data(ind: InducedData, der: DerivedTensors):
    h, s, g = ind.h, ind.S, ind.Gamma
    gauss = der.R_curv - (
        np.einsum("jk,li->lijk", h, s) - np.einsum("ik,lj->lijk", h, s)
    )
    codazzi_h = der.Q - der.Q.transpose(1, 0, 2)
    nabla_s = (
        ind.dS
        + np.einsum("lip,pj->ilj", g, s)
        - np.einsum("pij,lp->ilj", g, s)
    )
    t = nabla_s - ind.tau[:, None, None] * s[None, :, :]
    codazzi_s = t - t.transpose(2, 1, 0)
    hs = h @ s
    ricci = hs - hs.T - 2.0 * der.dtau
    return (
        float(np.max(np.abs(gauss))),
        float(np.max(np.abs(codazzi_h))),
        float(np.max(np.abs(codazzi_s))),
        float(np.max(np.abs(ricci))),
    )


# ----------------------------------------------------------------------
# sampling


def _chart_quality(scene: ImmersionScene, u: np.ndarray) -> float:
    if scene.family in ("quadric_radial", "perturbed_transversal"):
        spec: QuadricSpec = scene.params["quadric"]
        y = scene.params["base_point"] + scene.params["basis"].T @ u
        return float(y @ spec.A @ y)
    return 1.0


def draw_samples(
    scene: ImmersionScene,
    seed: int,
    num_samples: int,
    sample_box: float = DEFAULT_SAMPLE_BOX,
) -> list:
    """Seeded chart points in [-box, box]^m, rejecting points that leave the
    chart (quadric value <= 0.1) or whose frame is too ill-conditioned.

    The screen evaluates f and C only to first order, which fixes the frame
    value B0 exactly, and applies the condition test of ``Frame`` to it, so
    it keeps the same points as building the full frame would."""
    if num_samples < 1:
        raise ShapeError(f"num_samples must be >= 1, got {num_samples}")
    rng = np.random.default_rng([seed, 2])
    m = scene.chart_dim
    samples = []
    budget = 50 * num_samples + 100
    for _ in range(budget):
        if len(samples) == num_samples:
            break
        u = rng.uniform(-sample_box, sample_box, size=m)
        if _chart_quality(scene, u) <= CHART_Q_MIN:
            continue
        try:
            _frame_value(*eval_immersion(scene, u, order=1))
        except (ChartLeak, DegenerateFrame):
            continue
        samples.append(u)
    if not samples:
        raise GenerationError("no admissible sample points found in the chart box")
    return samples


def _attach_samples(scene, seed, num_samples, sample_box, samples):
    if samples is not None:
        scene.samples = [np.asarray(s, dtype=float) for s in samples]
    else:
        scene.samples = draw_samples(scene, seed, num_samples, sample_box)
