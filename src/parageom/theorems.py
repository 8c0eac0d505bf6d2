"""Per-result verification batteries.

Each named result about the induced structure becomes a battery of residuals
evaluated at every sample of a scene:

* ``ENGINE``          — the Gauss, Codazzi and Ricci equations, true for any
                        transversal: the engine self-test of every verify run.
* ``METRIC``          — structure-level battery (J-tangency, the almost
                        paracontact axioms, metric compatibility, signature).
* ``TW_WZORY``        — the six connection/form identities that hold for any
                        J-tangent transversal field.
* ``COR_WZORY``       — their restrictions to fields in ker(eta).
* ``PROP_NORMAL``     — equivalence of the Nijenhuis and the operational
                        normality conditions.
* ``LEM_EST``         — eta = h(., xi), S preserves ker(eta), the defect
                        vector Z0 = S xi + xi lies in ker(eta), and
                        tau(Z) = -h(Z, phi Z0) there.
* ``LEM_CUBIC``       — the cubic-form identities on ker(eta).
* ``THM_STAU``        — S = -Id and tau = 0.
* ``THM_EQUIV``       — metric, para-(-1)-contact, para-(-1)-Sasakian and
                        normality hold jointly.
* ``THM_QUADRIC_FWD`` — total vanishing of the cubic form (the checkable
                        surrogate of the hyperquadric classification).
* ``THM_QUADRIC_CONV``— the converse: a centered quadric anticommuting with
                        the half-swap, with the position transversal, carries
                        a metric induced structure with all of the above
                        (``verify_quadric_converse`` builds its scene).

ENGINE and THM_QUADRIC_CONV are not among the ``SCENE_SUITES`` a scene file
may select.  Each battery is one ``_Battery`` record in ``_BATTERIES``, and
``run_suite`` reads only that record: it calls the body once, on the batch
``analyze_scene`` computes once per scene (``analyze_point`` on the stack of
its samples).  A body is a pure function of the batch that returns only
``{identity: residual}``, each a raw ndarray with the sample axis in front.
``_score`` is the only place that reduces a residual or compares it with a
tolerance, for the batteries and the hypothesis gates alike, in one pass over
the samples: an identity reads each sample's max |residual| and passes where
that is <= its tolerance, so a NaN fails; one quantified over an empty
ker(eta), as at n = 0, is reported vacuous instead.  Diagnostic mode disables
the gates so negative behaviour can be measured.  Analysis failures, gate
skips and degeneracy skips are reported per sample, never silently dropped:
a ``TheoremReport`` keeps the per-sample columns, with None in every column
but ``skip_reasons`` where a sample was skipped, and its ``to_dict`` writes
them under their own names (report version 2).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from .hypersurface import (
    DerivedTensors,
    ImmersionScene,
    InducedData,
    derive_tensors,
    induced_data,
    quadric_scene,
    residuals_from_data,
)
from .paracomplex import QuadricSpec
from .paracontact import (
    ParacontactData,
    axiom_residuals,
    contact_residual,
    induced_structure,
    metric_residual,
    normality_residuals,
    sasakian_residual,
)

SCENE_SUITES = (
    "METRIC", "TW_WZORY", "COR_WZORY", "PROP_NORMAL", "LEM_EST", "LEM_CUBIC",
    "THM_STAU", "THM_EQUIV", "THM_QUADRIC_FWD",
)

# Identities reported for information only; they never gate a battery.
_INFORMATIONAL = ("info_z0_norm", "info_h_shape_phi")

# Converse-battery tolerances, one per measured quantity.
CONVERSE_TOLERANCES = {
    "j_tangency": 1e-10,
    "metric": 1e-8,
    "signature_defect": 0.5,
    "s_plus_id": 1e-8,
    "tau_norm": 1e-8,
    "cubic_max": 1e-7,
    "contact_minus_one": 1e-6,
    "sasakian_minus_one": 1e-6,
    "nijenhuis": 1e-6,
    "operational": 1e-6,
}


# ----------------------------------------------------------------------
# per-point analysis


@dataclass
class PointAnalysis:
    """Everything the batteries consume, computed once: at one chart point
    or, with the sample axis in front of every array, at each point of a
    stack.  ``pd.faults`` is its failure record.  The lazy quantities below
    are cached on the instance, so a ``dataclasses.replace`` copy computes
    them afresh."""

    u: np.ndarray
    ind: InducedData
    der: DerivedTensors
    pd: ParacontactData
    metric: np.ndarray
    _gates: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def normality(self) -> tuple:
        """(Nijenhuis, operational) normality defects, computed once per
        analysis for every battery that reads them; lazy because they need
        h^{-1} at n >= 1."""
        return normality_residuals(self.pd, self.ind)

    def gate_scores(self, tol: float) -> dict:
        """``{gate residual: _score of it alone}`` at the tolerance ``tol``,
        computed once per analysis and tolerance for every gated battery."""
        if tol not in self._gates:
            gated = {"j_tangency": self.pd.tangency, "metric": self.metric}
            self._gates[tol] = {name: _score({name: r}, tol) for name, r in gated.items()}
        return self._gates[tol]


def analyze_point(scene: ImmersionScene, u: np.ndarray) -> PointAnalysis:
    """Everything the batteries read at a chart point ``(m,)``, which raises
    its ChartLeak or DegenerateFrame, or at every point of a ``(S, m)`` stack
    in one pass, which keeps them in ``pd.faults``.  A swept scene's batch
    has a row per (epsilon, point) pair, as ``induced_data`` returns them."""
    ind = induced_data(scene, u)
    der = derive_tensors(ind)
    pd = induced_structure(ind)
    return PointAnalysis(ind.u, ind, der, pd, metric_residual(pd, ind.h))


def analyze_scene(scene: ImmersionScene) -> PointAnalysis | None:
    """All samples of a scene analysed in one batched pass, ``analyze_point``
    on their stack; None for a scene without samples."""
    return analyze_point(scene, np.stack(scene.samples)) if scene.samples else None


# ----------------------------------------------------------------------
# reports


@dataclass
class TheoremReport:
    """One battery over a scene's samples, as columns with one entry per
    sample (``identities`` holds one per identity); ``signatures`` is filled
    where the battery's record adds that column (THM_QUADRIC_CONV).
    ``num_skipped`` and ``max_residual`` are computed once, when first read,
    from the columns ``run_suite`` filled."""

    theorem_id: str
    tolerance: object
    status: str  # passed | failed | skipped | vacuous
    gate: str | None
    skip_reasons: list
    identities: dict = field(default_factory=dict)
    worst: list = field(default_factory=list)
    ok: list = field(default_factory=list)
    vacuous_identities: list = field(default_factory=list)
    signatures: list | None = None

    @property
    def passed(self) -> bool:
        return self.status in ("passed", "vacuous")

    @cached_property
    def num_skipped(self) -> int:
        return sum(r is not None for r in self.skip_reasons)

    @cached_property
    def max_residual(self) -> float:
        vals = [w for w in self.worst if w is not None]
        return float(np.max(vals, initial=0.0))  # unlike max, lets a NaN show

    def degenerate_indices(self) -> list:
        reasons = enumerate(self.skip_reasons)
        return [i for i, r in reasons if r is not None and r.startswith("degenerate")]

    def to_dict(self) -> dict:
        """The report as JSON-ready values (report version 2): every field
        under its own name, the columns as the report's own lists, plus the
        suite's ``max_residual`` and ``num_skipped``."""
        return {
            **{f.name: getattr(self, f.name) for f in fields(self)},
            "max_residual": self.max_residual,
            "num_skipped": self.num_skipped,
        }


def _score(residuals: dict, tol) -> tuple:
    """``(identities, vacuous, worst, ok)`` of residuals with the sample axis
    in front, as Python values: each identity's max |residual| per sample,
    the vacuous identities, and each sample's worst value and verdict.  An
    identity is ok where its value is <= its tolerance (a float or one per
    identity), which a NaN never is; ``worst`` shows a NaN too.  An empty
    residual marks the identity vacuous; informational and vacuous identities
    count in neither verdict."""
    samples = len(next(iter(residuals.values())))
    identities, vacuous = {}, []
    worst, ok = np.zeros(samples), np.ones(samples, dtype=bool)
    for name, r in residuals.items():
        value = np.abs(r).reshape(samples, -1).max(axis=1, initial=0.0)
        identities[name] = value.tolist()
        if name in _INFORMATIONAL:
            continue
        if r.size == 0:
            vacuous.append(name)
            continue
        worst = np.maximum(worst, value)  # once NaN, worst stays NaN
        ok &= value <= (tol[name] if isinstance(tol, dict) else tol)
    return identities, vacuous, worst.tolist(), ok.tolist()


# Verdict rules: ``_score``'s result and the tolerance -> each sample's ok.
def _within_tolerance(score: tuple, tol) -> list:
    """The default: ok where every counted identity is within its tolerance."""
    return score[3]


def _same_side(score: tuple, tol: float) -> list:
    """PROP_NORMAL's rule: the proposition is an equivalence, so a sample is
    ok where both normality defects sit on the same side of the tolerance,
    and a NaN sits on neither."""
    ids, _, worst, _ = score
    return [
        (a <= tol) == (b <= tol) and not math.isnan(w)
        for a, b, w in zip(ids["nijenhuis"], ids["operational"], worst)
    ]


# ----------------------------------------------------------------------
# battery bodies (PointAnalysis -> {identity: residual}, on a point or a stack)


def _mv(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix ``(..., i, j)`` times vector ``(..., j)``, behind the same
    sample axes."""
    return np.einsum("...ij,...j->...i", a, v)


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes."""
    return np.swapaxes(a, -1, -2)


def _engine_identities(pa: PointAnalysis) -> dict:
    return residuals_from_data(pa.ind, pa.der)


def _tw_wzory_identities(pa: PointAnalysis) -> dict:
    ind, pd = pa.ind, pa.pd
    g, h, s, tau = ind.Gamma, ind.h, ind.S, ind.tau
    eta, phi, xi = pd.eta, pd.phi, pd.xi
    deta, dphi, dxi = pd.deta, pd.dphi, pd.dxi

    lead, m = g.shape[:-3], g.shape[-1]
    g_flat = g.reshape(lead + (m, m * m))  # [k, (i, j)]

    # eta(nabla_X Y) = h(X, phi Y) + X(eta(Y)) + eta(Y) tau(X)
    mixed = h @ phi + deta + tau[..., :, None] * eta[..., None, :]
    eq1 = (eta[..., None, :] @ g_flat).reshape(h.shape) - mixed

    # phi(nabla_X Y) = nabla_X(phi Y) - eta(Y) S X - h(X, Y) xi
    nabla_phi = np.einsum("...ikj->...kij", dphi) + g @ phi[..., None, :, :]
    eta_s = s[..., :, :, None] * eta[..., None, None, :]  # eta(Y) S X as [k, X, Y]
    eq2 = (phi @ g_flat).reshape(g.shape) - nabla_phi + eta_s + xi[..., :, None, None] * h[..., None, :, :]

    # eta([X, Y]) = 0 for coordinate fields: antisymmetrized right side.
    eq3 = mixed - _t(mixed)

    # phi([X, Y]) = 0: nabla_X(phi Y) - nabla_Y(phi X) + eta(X) S Y - eta(Y) S X
    eq4 = nabla_phi - _t(nabla_phi) + _t(eta_s) - eta_s

    # eta(nabla_X xi) = tau(X)
    nabla_xi = _t(dxi) + (g.reshape(lead + (m * m, m)) @ xi[..., :, None]).reshape(h.shape)
    eq5 = _mv(_t(nabla_xi), eta) - tau

    # eta(S X) = -h(X, xi)
    eq6 = _mv(_t(s), eta) + _mv(h, xi)

    return {
        "eta_nabla": eq1,
        "phi_nabla": eq2,
        "eta_bracket": eq3,
        "phi_bracket": eq4,
        "eta_nabla_xi": eq5,
        "eta_shape": eq6,
    }


def _cor_wzory_identities(pa: PointAnalysis) -> dict:
    ind, pd = pa.ind, pa.pd
    g, h, tau = ind.Gamma, ind.h, ind.tau
    eta, phi, xi = pd.eta, pd.phi, pd.xi
    # Fields over the ker(eta) basis: rows Z_a, d_l Z_a^k as dz[a, k, l].
    z, dz = pd.D_basis, pd.dbasis
    z_t = _t(z)[..., None, :, :]
    pz = z @ _t(phi)  # rows phi Z_a
    dpz = np.swapaxes(pd.dphi @ z_t, -1, -3) + phi[..., None, :, :] @ dz
    gz = np.swapaxes(z[..., None, :, :] @ g, -3, -2)  # Gamma(Z_a, .)
    # Z_a(Y_b) and the covariant derivatives nabla_{Z_a} Y_b, index [a, b, k].
    dzz = np.moveaxis(dz @ z_t, -1, -3)
    nab = dzz + _t(gz @ z_t)
    nab_pz = np.moveaxis(dpz @ z_t, -1, -3) + _t(gz @ _t(pz)[..., None, :, :])
    h_zpz = z @ h @ _t(pz)  # h(Z_a, phi Z_b)
    h_xipz = _mv(pz, _mv(_t(h), xi))  # h(xi, phi Z_a)
    dz_xi = (dz @ xi[..., None, :, None])[..., 0]  # xi(Z_a)
    nab_xi_z = dz_xi + z @ _t((xi[..., None, None, :] @ g)[..., 0, :])
    eta_col = eta[..., None, :, None]

    # eta(nabla_Z W) = h(Z, phi W)
    r1 = (nab @ eta_col)[..., 0] - h_zpz
    # eta(nabla_xi Z) = h(xi, phi Z)
    r2 = _mv(nab_xi_z, eta) - h_xipz
    # phi(nabla_Z W) = nabla_Z(phi W) - h(Z, W) xi
    r3 = nab @ _t(phi)[..., None, :, :] - nab_pz + (z @ h @ _t(z))[..., None] * xi[..., None, None, :]
    # eta([Z, W]) = h(Z, phi W) - h(W, phi Z)
    r4 = ((dzz - np.swapaxes(dzz, -3, -2)) @ eta_col)[..., 0] - h_zpz + _t(h_zpz)
    # eta([Z, xi]) = -h(xi, phi Z) + tau(Z)
    r5 = _mv(z @ pd.dxi - dz_xi, eta) + h_xipz - _mv(z, tau)
    return {
        "eta_nabla_zw": r1,
        "eta_nabla_xi_z": r2,
        "phi_nabla_zw": r3,
        "eta_bracket_zw": r4,
        "eta_bracket_z_xi": r5,
    }


def _lem_est_identities(pa: PointAnalysis) -> dict:
    ind, pd = pa.ind, pa.pd
    h, s, tau = ind.h, ind.S, ind.tau
    eta, phi, xi = pd.eta, pd.phi, pd.xi
    z0 = _mv(s, xi) + xi
    return {
        "eta_equals_h_xi": eta - _mv(h, xi),
        "z0_in_kernel": np.einsum("...i,...i->...", eta, z0),
        "info_z0_norm": z0,
        "shape_preserves_kernel": _mv(pd.D_basis, _mv(_t(s), eta)),
        "tau_from_z0": _mv(pd.D_basis, tau) + _mv(pd.D_basis @ h, _mv(phi, z0)),
    }


def _lem_cubic_identities(pa: PointAnalysis) -> dict:
    ind, pd = pa.ind, pa.pd
    q = pa.der.Q
    z = pd.D_basis
    zphi = z @ _t(pd.phi)  # rows are phi Z_a
    # Q(., Z_a, Z_b) as [i, a, b], and Q(., phi Z_a, phi Z_b).
    q_zz = z[..., None, :, :] @ (q @ _t(z)[..., None, :, :])
    q_pp = zphi[..., None, :, :] @ (q @ _t(zphi)[..., None, :, :])
    h_sw_phiw = np.einsum("...ak,...ak->...a", z @ _t(ind.S) @ ind.h, zphi)
    q_xi = np.einsum("...i,...iaa->...a", pd.xi, q_zz)
    h_sphi_w = np.einsum("...ak,...ak->...a", zphi @ _t(ind.S) @ ind.h, z)
    return {
        "cubic_phi_reflection": q_zz + q_pp,
        # Q(Z_c, Z_a, Z_b)
        "cubic_kernel_vanishing": (z @ q_zz.reshape(q_zz.shape[:-2] + (-1,))).reshape(
            z.shape[:-1] + q_zz.shape[-2:]
        ),
        "cubic_reeb_slot": np.concatenate((q_xi + h_sw_phiw, h_sw_phiw + h_sphi_w), axis=-1),
        "info_h_shape_phi": h_sw_phiw,
    }


def _thm_stau_identities(pa: PointAnalysis) -> dict:
    return {
        "s_plus_id": pa.ind.S + np.eye(pa.ind.S.shape[-1]),
        "tau_norm": pa.ind.tau,
    }


def _prop_normal_identities(pa: PointAnalysis) -> dict:
    nij, op = pa.normality
    return {"nijenhuis": nij, "operational": op}


def _thm_equiv_identities(pa: PointAnalysis) -> dict:
    nij, op = pa.normality
    return {
        "metric": pa.metric,
        "contact_minus_one": contact_residual(pa.pd, pa.ind.h, -1.0),
        "sasakian_minus_one": sasakian_residual(pa.pd, pa.ind, -1.0),
        "nijenhuis": nij,
        "operational": op,
    }


def _quadric_fwd_identities(pa: PointAnalysis) -> dict:
    return {"cubic_max": pa.der.Q}


def _signature_defect(pa: PointAnalysis) -> np.ndarray:
    n = pa.pd.n
    return np.where(np.all(np.asarray(pa.ind.h_factor.signature) == (n + 1, n), axis=-1), 0.0, 1.0)


def _metric_identities(pa: PointAnalysis) -> dict:
    ax = axiom_residuals(pa.pd)
    return {
        "j_tangency": pa.pd.tangency,
        "phi_square": ax["phi_square"],
        "eta_xi": ax["eta_xi"],
        "phi_xi": ax["phi_xi"],
        "eta_phi": ax["eta_phi"],
        "eigen_split": ax["eigen_split"],
        "eigen_counts": np.where(ax["eigen_counts_ok"], 0.0, 1.0),
        "metric": pa.metric,
        "signature_defect": _signature_defect(pa),
    }


def _converse_identities(pa: PointAnalysis) -> dict:
    return {
        "j_tangency": pa.pd.tangency,
        "signature_defect": _signature_defect(pa),
        **_thm_stau_identities(pa),
        **_quadric_fwd_identities(pa),
        **_thm_equiv_identities(pa),
    }


@dataclass(frozen=True)
class _Battery:
    """One battery, as ``run_suite`` reads it: the ``body``; the ``gate``
    (a key of ``_GATES``) each sample must pass outside diagnostic mode; the
    scene ``tolerance`` of that name, or one per identity; the least n at
    which the body inverts h (None: never), from which a sample with a
    degenerate h is skipped; the ``verdict`` rule; and extra report
    ``columns``, ``{TheoremReport field: batch -> per-sample values}``."""

    body: Callable
    gate: str | None = None
    tolerance: str | dict = "theorem"
    inverts_h: int | None = None
    verdict: Callable = _within_tolerance
    columns: dict = field(default_factory=dict)


_BATTERIES = {
    "ENGINE": _Battery(_engine_identities, tolerance="engine"),
    "METRIC": _Battery(_metric_identities),
    "TW_WZORY": _Battery(_tw_wzory_identities, "tangent"),
    "COR_WZORY": _Battery(_cor_wzory_identities, "tangent"),
    "PROP_NORMAL": _Battery(_prop_normal_identities, "tangent", inverts_h=1, verdict=_same_side),
    "LEM_EST": _Battery(_lem_est_identities, "metric"),
    "LEM_CUBIC": _Battery(_lem_cubic_identities, "metric"),
    "THM_STAU": _Battery(_thm_stau_identities, "metric"),
    "THM_EQUIV": _Battery(_thm_equiv_identities, "metric", inverts_h=0),
    "THM_QUADRIC_FWD": _Battery(_quadric_fwd_identities, "metric"),
    "THM_QUADRIC_CONV": _Battery(
        _converse_identities, tolerance=CONVERSE_TOLERANCES, inverts_h=0,
        columns={"signatures": lambda pa: pa.ind.h_factor.signature.tolist()},
    ),
}

# Each gate, by the name a battery and its report give it (None: ungated): the
# gate residuals a sample must pass, each with the skip reason where it fails.
_TANGENT = {"j_tangency": "transversal not J-tangent"}
_GATES = {None: {}, "tangent": _TANGENT, "metric": {**_TANGENT, "metric": "structure not metric"}}


# ----------------------------------------------------------------------
# scene-level suites


def run_suite(
    scene: ImmersionScene,
    theorem_id: str,
    diagnostic: bool = False,
    analyses: PointAnalysis | None = None,
) -> TheoremReport:
    """Evaluate the battery ``theorem_id`` over every sample of a scene, as
    its ``_BATTERIES`` record says, on ``analyses``, the scene's batch
    (``analyze_scene``, computed here when not given).  A sample is skipped,
    with its reason, when it could not be analyzed ("degenerate: ..."), when
    it fails the gate ("gate: ..."), or when its h is degenerate where the
    body inverts h ("degenerate: ...")."""
    battery = _BATTERIES[theorem_id]  # a KeyError names an unknown id
    tol, gate = battery.tolerance, battery.gate
    tol = dict(tol) if isinstance(tol, dict) else float(scene.tolerances[tol])
    batch = analyze_scene(scene) if analyses is None else analyses
    if batch is None:
        return TheoremReport(theorem_id, tol, "skipped", gate, [])

    reasons = [
        None if fault is None else f"degenerate: {type(fault).__name__}: {fault}"
        for fault in batch.pd.faults
    ]
    for name, what in ({} if diagnostic else _GATES[gate]).items():
        values, _, _, ok = batch.gate_scores(tol)[name]
        for idx, (value, passed) in enumerate(zip(values[name], ok)):
            if reasons[idx] is None and not passed:
                reasons[idx] = f"gate: {what} (residual {value:.3g})"
    if battery.inverts_h is not None and batch.pd.n >= battery.inverts_h:
        for idx in np.flatnonzero(batch.ind.h_factor.degenerate):
            if reasons[idx] is None:
                reasons[idx] = f"degenerate: {batch.ind.h_factor.reason(idx)}"

    if None not in reasons:
        return TheoremReport(
            theorem_id, tol, "skipped", gate, reasons,
            worst=[None] * len(reasons), ok=[None] * len(reasons),
        )
    score = _score(battery.body(batch), tol)
    ids, vac, worst, _ = score
    ok = _scored(battery.verdict(score, tol), reasons)
    if False in ok:
        status = "failed"
    elif vac and all(k in vac or k in _INFORMATIONAL for k in ids):
        status = "vacuous"
    else:
        status = "passed"
    columns = {name: _scored(column(batch), reasons) for name, column in battery.columns.items()}
    return TheoremReport(
        theorem_id, tol, status, gate, reasons,
        identities={k: _scored(v, reasons) for k, v in ids.items()},
        worst=_scored(worst, reasons), ok=ok, vacuous_identities=vac, **columns,
    )


def _scored(values: list, reasons: list) -> list:
    """``values`` with None in place of every skipped sample's entry."""
    return [v if r is None else None for v, r in zip(values, reasons)]


def verify_quadric_converse(
    spec: QuadricSpec,
    num_samples: int = 20,
    seed: int = 0,
) -> TheoremReport:
    """The THM_QUADRIC_CONV battery, each identity against its own tolerance
    in ``CONVERSE_TOLERANCES``, on the quadric's radial chart (base point
    found by seeded search) with the position transversal."""
    scene = quadric_scene(spec, seed=seed, num_samples=num_samples)
    return run_suite(scene, "THM_QUADRIC_CONV")
