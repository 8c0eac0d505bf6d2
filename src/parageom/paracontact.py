"""The induced almost paracontact structure and its compatibility residuals.

When the transversal field C is J-tangent, splitting J against the frame
induces a triple (phi, xi, eta):

    J e_i = phi^k_i e_k + eta_i C,      J C = xi^k e_k   (+ residual * C).

The transversal coefficient of J C is the J-tangency residual; when it
vanishes the triple satisfies the almost paracontact axioms
phi^2 = Id - eta (x) xi, eta(xi) = 1, phi xi = 0, eta o phi = 0, and phi
splits ker(eta) into +-1 eigenspaces of equal dimension.

Every function here takes one point or a stack with the sample axis in
front, as ``induced_data`` does.  Against the second fundamental form h this
module measures:

* metric compatibility  h(phi X, phi Y) + h(X, Y) - eta(X) eta(Y),
* the contact condition  d eta = alpha * h(., phi .),
* normality, both as the Nijenhuis defect [phi, phi] - 2 d eta (x) xi and
  as the operational form S phi Z - phi S Z + tau(Z) xi on ker(eta),
* the Sasakian condition on the Levi-Civita connection of h.

Each residual function returns the raw residual tensor, never its norm:
``theorems._score`` alone reduces residuals and compares them with tolerances.
None of them writes a failure record.  Where one needs h^{-1} or |h|
(``InducedData.h_factor``), a degenerate h raises DegenerateMetric at a
single point; a stack uses the identity in its place, and
``theorems.run_suite`` skips that sample in every battery that inverts h.

All exterior derivatives use the convention
d w(X, Y) = (X(w(Y)) - Y(w(X)) - w([X, Y])) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFrame, record_failures
from .hypersurface import HFactor, InducedData

# Pivot floor for selecting independent spanning fields of ker(eta).
_DBASIS_PIVOT = 1e-8


@dataclass
class ParacontactData:
    """Structure tensors and their first chart derivatives, at one chart
    point or, behind a leading sample axis, at each point of a stack.

    ``phi[k, j]`` is the e_k coefficient of the tangential part of J e_j;
    ``D_basis`` holds 2n orthonormal coordinate vectors spanning ker(eta),
    differentiable in u (``dbasis[a, k, l]`` = d_l of field a, component k).
    ``faults`` holds each sample's failure, those of the ``InducedData`` and
    the ker(eta) pivot's DegenerateFrame (None where the sample is usable).
    """

    n: int
    xi: np.ndarray
    eta: np.ndarray
    phi: np.ndarray
    d_eta: np.ndarray
    D_basis: np.ndarray
    tangency: np.ndarray  # |transversal part of J C|, a scalar at one point
    dxi: np.ndarray
    deta: np.ndarray
    dphi: np.ndarray
    dbasis: np.ndarray
    faults: np.ndarray


def induced_structure(induced: InducedData) -> ParacontactData:
    """Build (phi, xi, eta) and the ker(eta) basis from the split of J against
    the frame (``J_frame``), as first-order jets so first derivatives come
    along.  A single point raises its failure; a stack keeps it."""
    jf = induced.J_frame
    m = jf.shape[-2] - 1
    phi_jets, eta_jets = jf[..., :m, :m, :], jf[..., m, :m, :]  # [..., (k,) j, coeff]
    xi_jets, rho = jf[..., :m, m, :], jf[..., m, m, :]

    deta = np.moveaxis(eta_jets[..., 1:], -1, -2)  # [..., l, i]
    d_eta = 0.5 * (deta - np.swapaxes(deta, -1, -2))
    faults = induced.faults.copy()
    basis, dbasis = _kernel_basis_jets(induced.n, eta_jets, xi_jets, faults)

    return ParacontactData(
        n=induced.n,
        xi=xi_jets[..., 0],
        eta=eta_jets[..., 0],
        phi=phi_jets[..., 0],
        d_eta=d_eta,
        D_basis=basis,
        tangency=np.abs(rho[..., 0]),
        dxi=np.swapaxes(xi_jets[..., 1:], -1, -2),
        deta=deta,
        dphi=np.moveaxis(phi_jets[..., 1:], -1, -3),
        dbasis=dbasis,
        faults=faults,
    )


def _kernel_basis_jets(n, eta_jets, xi_jets, faults):
    """2n orthonormal fields spanning ker(eta) and their chart derivatives,
    per sample: ``(D_basis, dbasis)``, ``dbasis[a, k, l]`` = d_l Z_a^k.

    The candidates Z_i = e_i - eta_i xi are smooth in u.  The pivots are
    those of modified Gram-Schmidt on their values (the largest residual
    norm first), so the selected combination is locally constant.  The basis
    is the Q of one QR of the selected candidates A, with R's diagonal made
    positive; its derivative is dQ = dA R^-1 - Q (X - Omega), with
    X = Q^T dA R^-1 and Omega = tril(X, -1) - tril(X, -1)^T.  A sample whose
    best candidate falls below the pivot floor gets a DegenerateFrame in
    ``faults``; every failed sample takes the unit vectors of its pivots as A.
    """
    m = eta_jets.shape[-2]
    want = 2 * n
    lead = eta_jets.shape[:-2]
    eta = eta_jets.reshape(-1, m, m + 1)
    xi = xi_jets.reshape(-1, m, m + 1)
    samples = np.arange(len(eta))
    # Candidate rows Z_i^k and their derivatives dZ[i, k, l], by the product rule.
    cand = np.eye(m) - eta[:, :, None, 0] * xi[:, None, :, 0]
    dcand = -(eta[:, :, None, 1:] * xi[:, None, :, :1] + eta[:, :, None, :1] * xi[:, None, :, 1:])

    pivots = np.zeros((len(samples), want), dtype=np.intp)
    used = np.zeros((len(samples), m), dtype=bool)
    low = np.zeros(len(samples), dtype=bool)
    residual = cand
    for step in range(want):
        norms = np.where(used, -np.inf, np.linalg.norm(residual, axis=-1))
        best = np.argmax(norms, axis=-1)
        low |= norms[samples, best] < _DBASIS_PIVOT
        used[samples, best] = True
        pivots[:, step] = best
        v = residual[samples, best] / np.maximum(norms[samples, best], _DBASIS_PIVOT)[:, None]
        # Used candidates are projected too, but never read again.
        residual = residual - (residual @ v[:, :, None]) * v[:, None, :]

    bad = record_failures(
        faults,
        low.reshape(lead),
        lambda k: DegenerateFrame("cannot span ker(eta): residual candidates below pivot floor"),
    ).reshape(-1, 1, 1)
    rows = samples[:, None], pivots
    q, r = np.linalg.qr(np.swapaxes(np.where(bad, np.eye(m)[pivots], cand[rows]), -1, -2))
    sign = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    q, r = q * sign[:, None, :], r * sign[:, :, None]
    # dA R^-1 as one (m, 2n) matrix per chart direction l.
    da = np.where(bad[..., None], 0.0, dcand[rows])
    c = np.transpose(da, (0, 3, 2, 1)) @ np.linalg.inv(r)[:, None]
    x = np.swapaxes(q, -1, -2)[:, None] @ c
    below = np.tril(x, -1)
    dq = c - q[:, None] @ (x - below + np.swapaxes(below, -1, -2))
    basis = np.swapaxes(q, -1, -2).reshape(lead + (want, m))
    return basis, np.transpose(dq, (0, 3, 2, 1)).reshape(lead + (want, m, m))


def metric_residual(pd: ParacontactData, h: np.ndarray) -> np.ndarray:
    """Defect of h(phi X, phi Y) + h(X, Y) - eta(X) eta(Y) over frame pairs."""
    phi = pd.phi
    return np.swapaxes(phi, -1, -2) @ h @ phi + h - pd.eta[..., :, None] * pd.eta[..., None, :]


def axiom_residuals(pd: ParacontactData) -> dict:
    """Residuals of the almost paracontact axioms; all construction-level,
    independent of any metric condition.  ``eigen_split`` is the distance of
    each eigenvalue of phi on ker(eta) to +-1 (0.0 at n = 0), and
    ``eigen_counts_ok`` whether n of them are positive."""
    m = pd.eta.shape[-1]
    out = {
        "phi_square": pd.phi @ pd.phi - np.eye(m) + pd.xi[..., :, None] * pd.eta[..., None, :],
        "eta_xi": np.einsum("...i,...i->...", pd.eta, pd.xi) - 1.0,
        "phi_xi": np.einsum("...ij,...j->...i", pd.phi, pd.xi),
        "eta_phi": np.einsum("...i,...ij->...j", pd.eta, pd.phi),
    }
    if pd.n == 0:
        out["eigen_split"] = np.zeros(pd.eta.shape[:-1])
        out["eigen_counts_ok"] = np.ones(pd.eta.shape[:-1], dtype=bool)
        return out
    action = pd.D_basis @ pd.phi @ np.swapaxes(pd.D_basis, -1, -2)
    vals = np.linalg.eigvals(action)
    out["eigen_split"] = np.minimum(np.abs(vals - 1), np.abs(vals + 1))
    out["eigen_counts_ok"] = np.sum(vals.real > 0, axis=-1) == pd.n
    return out


def normality_residuals(pd: ParacontactData, induced: InducedData):
    """(Nijenhuis defect, operational defect).

    The first is [phi, phi] - 2 d eta (x) xi in coordinates; the second is
    the |h|-norm of S phi Z - phi S Z + tau(Z) xi for each Z of the ker(eta)
    basis (0.0 at n = 0, where it needs no h), which is the authoritative
    check.
    """
    phi, dphi = pd.phi, pd.dphi
    lead, m = phi.shape[:-2], phi.shape[-1]
    # d[k, i, j] = sum_l phi[l, i] dphi[l, k, j] - phi[k, l] dphi[i, l, j];
    # the bracket is d antisymmetrized in (i, j).
    d = np.swapaxes(
        (np.swapaxes(phi, -1, -2) @ dphi.reshape(lead + (m, m * m))).reshape(dphi.shape)
        - phi[..., None, :, :] @ dphi,
        -3,
        -2,
    )
    nijenhuis = d - np.swapaxes(d, -1, -2) - 2.0 * pd.xi[..., :, None, None] * pd.d_eta[..., None, :, :]

    if pd.n == 0:
        return nijenhuis, np.zeros(pd.eta.shape[:-1])
    habs = induced.h_factor.abs()
    s_t, phi_t, z = np.swapaxes(induced.S, -1, -2), np.swapaxes(phi, -1, -2), pd.D_basis
    # Rows S phi Z_a - phi S Z_a + tau(Z_a) xi.
    tau_z = np.einsum("...ak,...k->...a", z, induced.tau)
    v = (z @ phi_t) @ s_t - (z @ s_t) @ phi_t + tau_z[..., :, None] * pd.xi[..., None, :]
    return nijenhuis, np.sqrt(np.einsum("...ak,...ak->...a", v @ habs, v))


def contact_residual(pd: ParacontactData, h: np.ndarray, alpha: float) -> np.ndarray:
    """Defect of d eta(X, Y) = alpha * h(X, phi Y) over frame pairs."""
    return pd.d_eta - alpha * (h @ pd.phi)


def levi_civita(h: HFactor, dh: np.ndarray) -> np.ndarray:
    """Christoffel symbols of the (pseudo-)metric h, given by its factor,
    from the Koszul formula.

    ``dh[l, i, j]`` is d_l h_{ij}; returns ``G[k, i, j]``, symmetric in (i, j).
    """
    m = dh.shape[-1]
    t = dh + np.einsum("...lij->...ilj", dh) - np.einsum("...lij->...ijl", dh)
    t = t.reshape(dh.shape[:-3] + (m * m, m))
    return 0.5 * (h.inverse() @ np.swapaxes(t, -1, -2)).reshape(dh.shape)


def sasakian_residual(pd: ParacontactData, induced: InducedData, alpha: float) -> np.ndarray:
    """Defect of (nabla-hat_X phi)(Y) = alpha(-h(X, Y) xi + eta(Y) X) over
    frame pairs, with nabla-hat the Levi-Civita connection of h."""
    g = levi_civita(induced.h_factor, induced.dh)
    phi = pd.phi
    m = phi.shape[-1]
    # sum_l G[k, i, l] phi[l, j] - phi[k, l] G[l, i, j], as [i, k, j].
    g_phi = g @ phi[..., None, :, :] - (phi @ g.reshape(g.shape[:-3] + (m, m * m))).reshape(g.shape)
    nab_phi = pd.dphi + np.swapaxes(g_phi, -3, -2)
    rhs = alpha * (
        -induced.h[..., :, None, :] * pd.xi[..., None, :, None]
        + np.eye(m)[:, :, None] * pd.eta[..., None, None, :]
    )
    return nab_phi - rhs
