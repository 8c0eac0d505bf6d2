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

Every battery runs through ``run_suite``, over the per-sample analyses that
``analyze_scene`` computes once per scene: one batched ``analyze_point`` on
the stack of the scene's samples, handed to the batteries as per-sample
views, and a failed sample as its message.  A battery body returns only
``{identity: residual}``, each residual a float or a raw ndarray of any shape.
``_score`` is the only place that reduces a residual or compares it with a
tolerance, for the batteries and the hypothesis gates alike: an identity reads
max |residual| and passes when that is <= its tolerance, so a NaN fails.  An
identity quantified over ker(eta) has an empty residual at n = 0, where it is
reported vacuous instead of counted.  Theorem hypotheses are enforced as
numeric gates at the scene's theorem tolerance; diagnostic mode disables the
gates so negative behaviour can be measured.  Gate skips and degeneracy skips
are reported per sample and never silently dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateMetric
from .hypersurface import (
    DerivedTensors,
    Frame,
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
    """Everything the batteries consume at one sample, computed once.

    ``analyze_point`` on a stack of samples gives one for the whole stack,
    every array with the sample axis in front and ``signature`` an
    ``(S, 2)`` array; the batteries read the per-sample views of
    ``analyze_scene``.
    """

    u: np.ndarray
    ind: InducedData
    der: DerivedTensors
    pd: ParacontactData
    metric: np.ndarray
    signature: tuple

    @cached_property
    def normality(self) -> tuple:
        """(Nijenhuis, operational) normality defects, computed once and
        shared by every battery that reads them.  Lazy because it raises
        DegenerateMetric on a degenerate h, which must skip only those
        batteries, not the whole sample."""
        return normality_residuals(self.pd, self.ind)

    @cached_property
    def gate_residuals(self) -> dict:
        """``j_tangency`` and ``metric`` reduced once, for every gate."""
        return _score({"j_tangency": self.pd.tangency, "metric": self.metric}, math.inf)[0]


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


def analyze_scene(scene: ImmersionScene):
    """Analyze all samples of a scene in one batched pass; returns, per
    sample, its ``PointAnalysis`` (views into the batch) or the failure that
    left it unusable, as ``"ChartLeak: ..."`` etc."""
    if not scene.samples:
        return []
    batch = analyze_point(scene, np.stack(scene.samples))
    out = []
    for i, fault in enumerate(batch.pd.faults):
        if fault is not None:
            out.append(f"{type(fault).__name__}: {fault}")
            continue
        out.append(
            PointAnalysis(
                u=batch.u[i],
                ind=_sample_view(batch.ind, i),
                der=_sample_view(batch.der, i),
                pd=_sample_view(batch.pd, i),
                metric=batch.metric[i],
                signature=tuple(batch.signature[i].tolist()),
            )
        )
    return out


def _sample_view(data, i: int):
    """Sample ``i`` of a batched analysis record (and of its frame): every
    array indexed at ``i``, every other attribute shared."""
    view = object.__new__(type(data))
    for key, value in vars(data).items():
        if isinstance(value, np.ndarray):
            value = value[i]
        elif isinstance(value, Frame):
            value = _sample_view(value, i)
        vars(view)[key] = value
    return view


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
    """``(identities, vacuous, worst, ok)`` of a body's residuals, as Python
    values.  Each identity reads max |residual| and is ok when that is <= its
    tolerance (a float or one per identity), which a NaN never is; ``worst``
    shows a NaN too.  An empty residual marks the identity vacuous;
    informational and vacuous identities count in neither verdict."""
    identities, vacuous = {}, []
    worst, ok = 0.0, True
    for name, r in residuals.items():
        if isinstance(r, float):
            value, empty = abs(float(r)), False
        else:
            value, empty = float(np.abs(r).max(initial=0.0)), r.size == 0
        identities[name] = value
        if name in _INFORMATIONAL:
            continue
        if empty:
            vacuous.append(name)
            continue
        if value > worst or math.isnan(value):  # once NaN, worst stays NaN
            worst = value
        if not value <= (tol[name] if isinstance(tol, dict) else tol):
            ok = False
    return identities, vacuous, worst, ok


# ----------------------------------------------------------------------
# battery bodies (PointAnalysis -> {identity: residual})


def _engine_identities(pa: PointAnalysis) -> dict:
    return residuals_from_data(pa.ind, pa.der)


def _tw_wzory_identities(pa: PointAnalysis) -> dict:
    ind, pd = pa.ind, pa.pd
    g, h, s, tau = ind.Gamma, ind.h, ind.S, ind.tau
    eta, phi, xi = pd.eta, pd.phi, pd.xi
    deta, dphi, dxi = pd.deta, pd.dphi, pd.dxi

    # eta(nabla_X Y) = h(X, phi Y) + X(eta(Y)) + eta(Y) tau(X)
    mixed = h @ phi + deta + np.outer(tau, eta)
    eq1 = np.einsum("k,kij->ij", eta, g) - mixed

    # phi(nabla_X Y) = nabla_X(phi Y) - eta(Y) S X - h(X, Y) xi
    nabla_phi = np.einsum("ikj->kij", dphi) + np.einsum("kim,mj->kij", g, phi)
    eq2 = (
        np.einsum("km,mij->kij", phi, g)
        - nabla_phi
        + np.einsum("j,ki->kij", eta, s)
        + np.einsum("ij,k->kij", h, xi)
    )

    # eta([X, Y]) = 0 for coordinate fields: antisymmetrized right side.
    eq3 = mixed - mixed.T

    # phi([X, Y]) = 0: nabla_X(phi Y) - nabla_Y(phi X) + eta(X) S Y - eta(Y) S X
    eq4 = (
        nabla_phi
        - nabla_phi.transpose(0, 2, 1)
        + np.einsum("i,kj->kij", eta, s)
        - np.einsum("j,ki->kij", eta, s)
    )

    # eta(nabla_X xi) = tau(X)
    nabla_xi = dxi.T + np.einsum("kim,m->ki", g, xi)
    eq5 = eta @ nabla_xi - tau

    # eta(S X) = -h(X, xi)
    eq6 = eta @ s + h @ xi

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
    pz = z @ phi.T  # rows phi Z_a
    dpz = np.einsum("lkm,am->akl", pd.dphi, z) + np.einsum("km,aml->akl", phi, dz)
    gz = np.einsum("klm,al->akm", g, z)  # Gamma(Z_a, .)
    # Z_a(Y_b) and the covariant derivatives nabla_{Z_a} Y_b, index [a, b, k].
    dzz = np.einsum("bkl,al->abk", dz, z)
    nab = dzz + np.einsum("akm,bm->abk", gz, z)
    nab_pz = np.einsum("bkl,al->abk", dpz, z) + np.einsum("akm,bm->abk", gz, pz)
    h_zpz = z @ h @ pz.T  # h(Z_a, phi Z_b)
    h_xipz = xi @ h @ pz.T  # h(xi, phi Z_a)
    nab_xi_z = dz @ xi + z @ np.einsum("klm,l->km", g, xi).T

    # eta(nabla_Z W) = h(Z, phi W)
    r1 = nab @ eta - h_zpz
    # eta(nabla_xi Z) = h(xi, phi Z)
    r2 = nab_xi_z @ eta - h_xipz
    # phi(nabla_Z W) = nabla_Z(phi W) - h(Z, W) xi
    r3 = nab @ phi.T - nab_pz + (z @ h @ z.T)[..., None] * xi
    # eta([Z, W]) = h(Z, phi W) - h(W, phi Z)
    r4 = (dzz - dzz.transpose(1, 0, 2)) @ eta - h_zpz + h_zpz.T
    # eta([Z, xi]) = -h(xi, phi Z) + tau(Z)
    r5 = (z @ pd.dxi - dz @ xi) @ eta + h_xipz - z @ tau
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
    z0 = s @ xi + xi
    return {
        "eta_equals_h_xi": eta - h @ xi,
        "z0_in_kernel": eta @ z0,
        "info_z0_norm": z0,
        "shape_preserves_kernel": pd.D_basis @ (s.T @ eta),
        "tau_from_z0": pd.D_basis @ tau + pd.D_basis @ h @ (phi @ z0),
    }


def _lem_cubic_identities(pa: PointAnalysis) -> dict:
    ind, pd = pa.ind, pa.pd
    q = pa.der.Q
    z = pd.D_basis
    zphi = z @ pd.phi.T  # rows are phi Z_a
    q_zz = z @ (q @ z.T)  # Q(., Z_a, Z_b) as [i, a, b]
    q_pp = zphi @ (q @ zphi.T)
    h_sw_phiw = np.einsum("ak,ak->a", z @ ind.S.T @ ind.h, zphi)
    q_xi = np.einsum("i,iaa->a", pd.xi, q_zz)
    h_sphi_w = np.einsum("ak,ak->a", zphi @ ind.S.T @ ind.h, z)
    return {
        "cubic_phi_reflection": q_zz + q_pp,
        "cubic_kernel_vanishing": z @ q_zz.reshape(len(q), -1),  # Q(Z_a, Z_b, Z_c)
        "cubic_reeb_slot": np.concatenate((q_xi + h_sw_phiw, h_sw_phiw + h_sphi_w)),
        "info_h_shape_phi": h_sw_phiw,
    }


def _thm_stau_identities(pa: PointAnalysis) -> dict:
    return {
        "s_plus_id": pa.ind.S + np.eye(len(pa.ind.S)),
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


def _metric_identities(pa: PointAnalysis) -> dict:
    ax = axiom_residuals(pa.pd)
    n = pa.pd.n
    return {
        "j_tangency": pa.pd.tangency,
        "phi_square": ax["phi_square"],
        "eta_xi": ax["eta_xi"],
        "phi_xi": ax["phi_xi"],
        "eta_phi": ax["eta_phi"],
        "eigen_split": ax["eigen_split"],
        "eigen_counts": 0.0 if ax["eigen_counts_ok"] else 1.0,
        "metric": pa.metric,
        "signature_defect": 0.0 if pa.signature == (n + 1, n) else 1.0,
    }


def _converse_identities(pa: PointAnalysis) -> dict:
    n = pa.pd.n
    return {
        "j_tangency": pa.pd.tangency,
        "metric": pa.metric,
        "signature_defect": 0.0 if pa.signature == (n + 1, n) else 1.0,
        **_thm_stau_identities(pa),
        **_quadric_fwd_identities(pa),
        # repeats "metric" with the same value, which keeps its place above
        **_thm_equiv_identities(pa),
    }


# theorem id -> (battery body, gate kind: None, "tangent" or "metric",
# tolerance: the scene tolerance of that name, or one per identity)
_BATTERIES = {
    "ENGINE": (_engine_identities, None, "engine"),
    "METRIC": (_metric_identities, None, "theorem"),
    "TW_WZORY": (_tw_wzory_identities, "tangent", "theorem"),
    "COR_WZORY": (_cor_wzory_identities, "tangent", "theorem"),
    "PROP_NORMAL": (_prop_normal_identities, "tangent", "theorem"),
    "LEM_EST": (_lem_est_identities, "metric", "theorem"),
    "LEM_CUBIC": (_lem_cubic_identities, "metric", "theorem"),
    "THM_STAU": (_thm_stau_identities, "metric", "theorem"),
    "THM_EQUIV": (_thm_equiv_identities, "metric", "theorem"),
    "THM_QUADRIC_FWD": (_quadric_fwd_identities, "metric", "theorem"),
    "THM_QUADRIC_CONV": (_converse_identities, None, CONVERSE_TOLERANCES),
}

# (gate residual, skip reason): a "tangent" gate checks the first, "metric" both.
_GATES = (("j_tangency", "transversal not J-tangent"), ("metric", "structure not metric"))


def _gate_failure(pa: PointAnalysis, gate: str | None, tol: float) -> str | None:
    if gate is None:
        return None
    for name, what in _GATES[: 2 if gate == "metric" else 1]:
        value = pa.gate_residuals[name]
        if not _score({name: value}, tol)[3]:
            return f"gate: {what} (residual {value:.3g})"
    return None


# ----------------------------------------------------------------------
# scene-level suites


def run_suite(
    scene: ImmersionScene,
    theorem_id: str,
    diagnostic: bool = False,
    analyses: list | None = None,
) -> TheoremReport:
    """Evaluate one battery over every sample of a scene.

    A sample is skipped, with its reason, when it could not be analyzed or
    its h is degenerate where the battery needs an inverse ("degenerate: ..."),
    or when it fails the battery's hypothesis gate outside diagnostic mode
    ("gate: ...").
    """
    if theorem_id not in _BATTERIES:
        raise KeyError(f"unknown theorem id {theorem_id!r}")
    body, gate, tolerances = _BATTERIES[theorem_id]
    tol = dict(tolerances) if isinstance(tolerances, dict) else float(scene.tolerances[tolerances])
    if analyses is None:
        analyses = analyze_scene(scene)

    outcomes = []
    for idx, pa in enumerate(analyses):
        reason = f"degenerate: {pa}" if isinstance(pa, str) else None
        if reason is None and not diagnostic:
            reason = _gate_failure(pa, gate, tol)
        if reason is None:
            try:
                residuals = body(pa)
            except DegenerateMetric as exc:
                reason = f"degenerate: {exc}"
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
        ids, vac, worst, ok = _score(residuals, tol)
        if theorem_id == "PROP_NORMAL":
            # The proposition is an equivalence: both residuals must sit on
            # the same side of the tolerance, and a NaN sits on neither.
            sides = {_score({k: ids[k]}, tol)[3] for k in ("nijenhuis", "operational")}
            ok = len(sides) == 1 and not math.isnan(worst)
        all_vacuous = bool(vac) and all(k in vac or k in _INFORMATIONAL for k in ids)
        outcomes.append(
            SampleOutcome(
                index=idx,
                identities=ids,
                extras=(
                    {"signature": list(pa.signature)}
                    if theorem_id == "THM_QUADRIC_CONV"
                    else {}
                ),
                max_residual=worst,
                passed=ok,
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
