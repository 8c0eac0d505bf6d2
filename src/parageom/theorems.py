"""Per-result verification batteries.

Each named result about the induced structure becomes a battery of residuals
evaluated at every sample of a scene:

* ``ENGINE``          — the Gauss, Codazzi and Ricci equations, true for any
                        transversal: the engine self-test of every verify
                        run, ungated, at the scene's engine tolerance.
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
                        a metric induced structure with all of the above.  It
                        is a row like the others, ungated, scored against the
                        per-identity ``CONVERSE_TOLERANCES``; like ENGINE it
                        is not one of the ``SCENE_SUITES`` a scene file may
                        select, and ``verify_quadric_converse`` builds its scene.

Every battery runs through ``run_suite``, which calls its body once, on the
batch ``analyze_scene`` computes once per scene (``analyze_point`` on the
stack of its samples).  A body is a pure function of the batch: it returns
only ``{identity: residual}``, each a raw ndarray with the sample axis in
front, and writes nothing.  ``_score`` is the only place that reduces a
residual or compares it with a tolerance, for the batteries and the
hypothesis gates alike, in one pass over the samples: an identity reads each
sample's max |residual| and passes where that is <= its tolerance, so a NaN
fails.  An identity quantified over ker(eta) has an empty residual at n = 0,
where it is reported vacuous instead of counted.  Theorem hypotheses are
enforced as numeric gates at the scene's theorem tolerance; diagnostic mode
disables the gates so negative behaviour can be measured.  A row that inverts
h names the least n at which it does, and from there ``run_suite`` skips each
sample whose h ``h_is_degenerate``.  Analysis failures, gate skips and
degeneracy skips are reported per sample and never silently dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .hypersurface import (
    DerivedTensors,
    ImmersionScene,
    InducedData,
    derive_tensors,
    h_is_degenerate,
    induced_data,
    quadric_scene,
    residuals_from_data,
)
from .paracomplex import QuadricSpec
from .paracontact import (
    ParacontactData,
    axiom_residuals,
    contact_residual,
    degenerate_metric,
    induced_structure,
    metric_residual,
    normality_residuals,
    sasakian_residual,
    signature_of,
)

SCENE_SUITES = (
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
    or, with the sample axis in front of every array and ``signature`` an
    ``(S, 2)`` array, at each point of a stack.  ``pd.faults`` is its
    failure record."""

    u: np.ndarray
    ind: InducedData
    der: DerivedTensors
    pd: ParacontactData
    metric: np.ndarray
    signature: tuple | np.ndarray

    @cached_property
    def normality(self) -> tuple:
        """(Nijenhuis, operational) normality defects, computed once per
        analysis for every battery that reads them; lazy because they need
        h^{-1} at n >= 1."""
        return normality_residuals(self.pd, self.ind)


def analyze_point(scene: ImmersionScene, u: np.ndarray) -> PointAnalysis:
    """Everything the batteries read at a chart point ``(m,)``, which raises
    its ChartLeak or DegenerateFrame, or at every point of a ``(S, m)`` stack
    in one pass, which keeps them in ``pd.faults``."""
    ind = induced_data(scene, u)
    der = derive_tensors(ind)
    pd = induced_structure(ind)
    return PointAnalysis(
        u=np.asarray(u, dtype=float),
        ind=ind,
        der=der,
        pd=pd,
        metric=metric_residual(pd, ind.h),
        signature=signature_of(ind.h),
    )


def analyze_scene(scene: ImmersionScene) -> PointAnalysis | None:
    """All samples of a scene analysed in one batched pass, ``analyze_point``
    on their stack; None for a scene without samples."""
    return analyze_point(scene, np.stack(scene.samples)) if scene.samples else None


# ----------------------------------------------------------------------
# reports


@dataclass
class SampleOutcome:
    index: int
    identities: dict
    extras: dict = field(default_factory=dict)
    max_residual: float = 0.0
    passed: bool = True
    skipped: bool = False
    skip_reason: str | None = None
    vacuous: bool = False
    vacuous_identities: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "identities": {k: float(v) for k, v in self.identities.items()},
            "extras": self.extras,
            "max_residual": float(self.max_residual),
            "passed": self.passed,
            "skipped": self.skipped,
            "skip_reason": self.skip_reason,
            "vacuous": self.vacuous,
            "vacuous_identities": list(self.vacuous_identities),
        }


@dataclass
class TheoremReport:
    theorem_id: str
    tolerance: object
    per_sample: list
    status: str  # passed | failed | skipped | vacuous
    gate: str | None = None

    @property
    def passed(self) -> bool:
        return self.status in ("passed", "vacuous")

    @property
    def num_skipped(self) -> int:
        return sum(1 for s in self.per_sample if s.skipped)

    @property
    def max_residual(self) -> float:
        vals = [s.max_residual for s in self.per_sample if not s.skipped]
        return float(np.max(vals, initial=0.0))  # unlike max, lets a NaN show

    def degenerate_indices(self) -> list:
        return [
            s.index
            for s in self.per_sample
            if s.skipped and (s.skip_reason or "").startswith("degenerate")
        ]

    def to_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "tolerance": self.tolerance,
            "status": self.status,
            "gate": self.gate,
            "max_residual": self.max_residual,
            "num_skipped": self.num_skipped,
            "per_sample": [s.to_dict() for s in self.per_sample],
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

    # eta(nabla_X Y) = h(X, phi Y) + X(eta(Y)) + eta(Y) tau(X)
    mixed = h @ phi + deta + tau[..., :, None] * eta[..., None, :]
    eq1 = np.einsum("...k,...kij->...ij", eta, g) - mixed

    # phi(nabla_X Y) = nabla_X(phi Y) - eta(Y) S X - h(X, Y) xi
    nabla_phi = np.einsum("...ikj->...kij", dphi) + np.einsum("...kim,...mj->...kij", g, phi)
    eq2 = (
        np.einsum("...km,...mij->...kij", phi, g)
        - nabla_phi
        + np.einsum("...j,...ki->...kij", eta, s)
        + np.einsum("...ij,...k->...kij", h, xi)
    )

    # eta([X, Y]) = 0 for coordinate fields: antisymmetrized right side.
    eq3 = mixed - _t(mixed)

    # phi([X, Y]) = 0: nabla_X(phi Y) - nabla_Y(phi X) + eta(X) S Y - eta(Y) S X
    eq4 = (
        nabla_phi
        - _t(nabla_phi)
        + np.einsum("...i,...kj->...kij", eta, s)
        - np.einsum("...j,...ki->...kij", eta, s)
    )

    # eta(nabla_X xi) = tau(X)
    nabla_xi = _t(dxi) + np.einsum("...kim,...m->...ki", g, xi)
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
    pz = z @ _t(phi)  # rows phi Z_a
    dpz = np.einsum("...lkm,...am->...akl", pd.dphi, z) + np.einsum("...km,...aml->...akl", phi, dz)
    gz = np.einsum("...klm,...al->...akm", g, z)  # Gamma(Z_a, .)
    # Z_a(Y_b) and the covariant derivatives nabla_{Z_a} Y_b, index [a, b, k].
    dzz = np.einsum("...bkl,...al->...abk", dz, z)
    nab = dzz + np.einsum("...akm,...bm->...abk", gz, z)
    nab_pz = np.einsum("...bkl,...al->...abk", dpz, z) + np.einsum("...akm,...bm->...abk", gz, pz)
    h_zpz = z @ h @ _t(pz)  # h(Z_a, phi Z_b)
    h_xipz = _mv(pz, _mv(_t(h), xi))  # h(xi, phi Z_a)
    dz_xi = np.einsum("...akl,...l->...ak", dz, xi)  # xi(Z_a)
    nab_xi_z = dz_xi + z @ _t(np.einsum("...klm,...l->...km", g, xi))

    # eta(nabla_Z W) = h(Z, phi W)
    r1 = np.einsum("...abk,...k->...ab", nab, eta) - h_zpz
    # eta(nabla_xi Z) = h(xi, phi Z)
    r2 = _mv(nab_xi_z, eta) - h_xipz
    # phi(nabla_Z W) = nabla_Z(phi W) - h(Z, W) xi
    r3 = (
        np.einsum("...abm,...km->...abk", nab, phi)
        - nab_pz
        + (z @ h @ _t(z))[..., None] * xi[..., None, None, :]
    )
    # eta([Z, W]) = h(Z, phi W) - h(W, phi Z)
    r4 = np.einsum("...abk,...k->...ab", dzz - np.swapaxes(dzz, -3, -2), eta) - h_zpz + _t(h_zpz)
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
        "cubic_kernel_vanishing": np.einsum("...ci,...iab->...cab", z, q_zz),  # Q(Z_c, Z_a, Z_b)
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
    return np.where(np.all(np.asarray(pa.signature) == (n + 1, n), axis=-1), 0.0, 1.0)


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
        "metric": pa.metric,
        "signature_defect": _signature_defect(pa),
        **_thm_stau_identities(pa),
        **_quadric_fwd_identities(pa),
        # repeats "metric" with the same value, which keeps its place above
        **_thm_equiv_identities(pa),
    }


# theorem id -> (battery body, gate kind: None, "tangent" or "metric",
# tolerance: the scene tolerance of that name, or one per identity,
# the least n at which the body inverts h: None where it never does)
_BATTERIES = {
    "ENGINE": (_engine_identities, None, "engine", None),
    "METRIC": (_metric_identities, None, "theorem", None),
    "TW_WZORY": (_tw_wzory_identities, "tangent", "theorem", None),
    "COR_WZORY": (_cor_wzory_identities, "tangent", "theorem", None),
    "PROP_NORMAL": (_prop_normal_identities, "tangent", "theorem", 1),
    "LEM_EST": (_lem_est_identities, "metric", "theorem", None),
    "LEM_CUBIC": (_lem_cubic_identities, "metric", "theorem", None),
    "THM_STAU": (_thm_stau_identities, "metric", "theorem", None),
    "THM_EQUIV": (_thm_equiv_identities, "metric", "theorem", 0),
    "THM_QUADRIC_FWD": (_quadric_fwd_identities, "metric", "theorem", None),
    "THM_QUADRIC_CONV": (_converse_identities, None, CONVERSE_TOLERANCES, 0),
}

# (gate residual, skip reason): a "tangent" gate checks the first, "metric" both.
_GATES = (("j_tangency", "transversal not J-tangent"), ("metric", "structure not metric"))


# ----------------------------------------------------------------------
# scene-level suites


def run_suite(
    scene: ImmersionScene,
    theorem_id: str,
    diagnostic: bool = False,
    analyses: PointAnalysis | None = None,
) -> TheoremReport:
    """Evaluate one battery over every sample of a scene.

    ``analyses`` is the scene's batch (``analyze_scene``, computed here when
    not given).  The battery body runs once, on the whole batch, and its
    residuals are scored in one pass over the samples.  A sample is skipped,
    with its reason, when it could not be analyzed ("degenerate: ..."), when
    it fails the battery's hypothesis gate outside diagnostic mode
    ("gate: ..."), or when its h is degenerate where the battery inverts h
    ("degenerate: ...").
    """
    if theorem_id not in _BATTERIES:
        raise KeyError(f"unknown theorem id {theorem_id!r}")
    body, gate, tolerances, inverts_h = _BATTERIES[theorem_id]
    tol = dict(tolerances) if isinstance(tolerances, dict) else float(scene.tolerances[tolerances])
    batch = analyze_scene(scene) if analyses is None else analyses
    if batch is None:
        return TheoremReport(theorem_id, tol, [], "skipped", gate)

    reasons = [
        None if fault is None else f"degenerate: {type(fault).__name__}: {fault}"
        for fault in batch.pd.faults
    ]
    if gate is not None and not diagnostic:
        gated = {"j_tangency": batch.pd.tangency, "metric": batch.metric}
        for name, what in _GATES[: 2 if gate == "metric" else 1]:
            values, _, _, ok = _score({name: gated[name]}, tol)
            for idx, (value, passed) in enumerate(zip(values[name], ok)):
                if reasons[idx] is None and not passed:
                    reasons[idx] = f"gate: {what} (residual {value:.3g})"
    if inverts_h is not None and batch.pd.n >= inverts_h:
        for idx in np.flatnonzero(h_is_degenerate(batch.ind.h)):
            if reasons[idx] is None:
                reasons[idx] = f"degenerate: {degenerate_metric(batch.ind.h[idx])}"

    if None in reasons:
        residuals = body(batch)
        ids, vac, worst, ok = _score(residuals, tol)
        if theorem_id == "PROP_NORMAL":
            # The proposition is an equivalence: both residuals must sit on
            # the same side of the tolerance, and a NaN sits on neither.
            nij, op = (_score({k: residuals[k]}, tol)[3] for k in ("nijenhuis", "operational"))
            ok = [a == b and not math.isnan(w) for a, b, w in zip(nij, op, worst)]
        all_vacuous = bool(vac) and all(k in vac or k in _INFORMATIONAL for k in ids)

    outcomes = []
    for idx, reason in enumerate(reasons):
        if reason is not None:
            outcomes.append(
                SampleOutcome(
                    index=idx,
                    identities={},
                    passed=False,
                    skipped=True,
                    skip_reason=reason,
                )
            )
            continue
        outcomes.append(
            SampleOutcome(
                index=idx,
                identities={k: v[idx] for k, v in ids.items()},
                extras=(
                    {"signature": batch.signature[idx].tolist()}
                    if theorem_id == "THM_QUADRIC_CONV"
                    else {}
                ),
                max_residual=worst[idx],
                passed=ok[idx],
                vacuous=all_vacuous,
                vacuous_identities=vac,
            )
        )

    return TheoremReport(
        theorem_id=theorem_id,
        tolerance=tol,
        per_sample=outcomes,
        status=_suite_status(outcomes),
        gate=gate,
    )


def _suite_status(outcomes) -> str:
    active = [o for o in outcomes if not o.skipped]
    if not active:
        return "skipped"
    if any(not o.passed for o in active):
        return "failed"
    if all(o.vacuous for o in active):
        return "vacuous"
    return "passed"


def verify_quadric_converse(
    spec: QuadricSpec,
    num_samples: int = 20,
    seed: int = 0,
) -> TheoremReport:
    """The converse battery on a quadric scene with the position transversal.

    Builds the radial chart (base point found by seeded search), then runs
    the THM_QUADRIC_CONV row: J-tangency, metric compatibility with signature
    (n+1, n), S = -Id and tau = 0, total vanishing of the cubic form, and the
    (-1)-contact, (-1)-Sasakian and normality conditions, each against its
    own tolerance in ``CONVERSE_TOLERANCES``.
    """
    scene = quadric_scene(spec, seed=seed, num_samples=num_samples)
    return run_suite(scene, "THM_QUADRIC_CONV")
