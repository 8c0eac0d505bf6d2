"""The induced almost paracontact structure and its compatibility residuals.

When the transversal field C is J-tangent, splitting J against the frame
induces a triple (phi, xi, eta):

    J e_i = phi^k_i e_k + eta_i C,      J C = xi^k e_k   (+ residual * C).

The transversal coefficient of J C is the J-tangency residual; when it
vanishes the triple satisfies the almost paracontact axioms
phi^2 = Id - eta (x) xi, eta(xi) = 1, phi xi = 0, eta o phi = 0, and phi
splits ker(eta) into +-1 eigenspaces of equal dimension.

Against the second fundamental form h this module measures, per point:

* metric compatibility  h(phi X, phi Y) + h(X, Y) - eta(X) eta(Y),
* the contact condition  d eta = alpha * h(., phi .),
* normality, both as the Nijenhuis defect [phi, phi] - 2 d eta (x) xi and
  as the operational form S phi Z - phi S Z + tau(Z) xi on ker(eta),
* the Sasakian condition on the Levi-Civita connection of h.

All exterior derivatives use the convention
d w(X, Y) = (X(w(Y)) - Y(w(X)) - w([X, Y])) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFrame, DegenerateMetric
from .hypersurface import InducedData, h_is_degenerate
from .paracomplex import apply_J

# Pivot floor for selecting independent spanning fields of ker(eta).
_DBASIS_PIVOT = 1e-8
# Relative eigenvalue threshold used when counting a signature (only there:
# whether h is degenerate is ``h_is_degenerate``'s determinant floor).
_SIGNATURE_REL = 1e-10


@dataclass
class ParacontactData:
    """Pointwise structure tensors and their first chart derivatives.

    ``phi[k, j]`` is the e_k coefficient of the tangential part of J e_j;
    ``D_basis`` holds 2n orthonormal coordinate vectors spanning ker(eta),
    differentiable in u (``dbasis[a, k, l]`` = d_l of field a, component k).
    """

    n: int
    xi: np.ndarray
    eta: np.ndarray
    phi: np.ndarray
    d_eta: np.ndarray
    D_basis: np.ndarray
    tangency: float
    dxi: np.ndarray
    deta: np.ndarray
    dphi: np.ndarray
    dbasis: np.ndarray


def induced_structure(induced: InducedData) -> ParacontactData:
    """Build (phi, xi, eta) and the ker(eta) basis by decomposing J against
    the frame, everything carried as first-order jets so first derivatives
    come along."""
    frame = induced.frame
    space = frame.space
    m = frame.m

    je = apply_J(frame.tangent_jets)
    jc = apply_J(frame.C_jet)
    rhs = np.concatenate([je, jc[:, None, :]], axis=1)
    tang, transv = frame.decompose_jets(rhs)

    phi_jets = tang[:, :m]  # [k, j, coeff]
    eta_jets = transv[:m]
    xi_jets = tang[:, m]
    rho = transv[m]

    deta = np.moveaxis(space.grad(eta_jets), -1, 0)  # [l, i]
    d_eta = 0.5 * (deta - deta.T)
    dbasis_jets = _kernel_basis_jets(space, induced.n, eta_jets, xi_jets)

    return ParacontactData(
        n=induced.n,
        xi=xi_jets[..., 0],
        eta=eta_jets[..., 0],
        phi=phi_jets[..., 0],
        d_eta=d_eta,
        D_basis=dbasis_jets[..., 0],
        tangency=float(abs(rho[0])),
        dxi=space.grad(xi_jets).T,
        deta=deta,
        dphi=np.moveaxis(space.grad(phi_jets), -1, 0),
        dbasis=space.grad(dbasis_jets),
    )


def _kernel_basis_jets(space, n, eta_jets, xi_jets):
    """2n orthonormal jet fields spanning ker(eta).

    Starts from the projections Z_i = e_i - eta_i xi (smooth in u), then runs
    modified Gram-Schmidt in jet arithmetic with pivots chosen by the value
    norm at the point, so the selected combination is locally constant and
    the resulting fields stay jet-differentiable.
    """
    m = space.num_vars
    want = 2 * n
    cand = np.zeros((m, m, space.ncoeff))
    cand[np.arange(m), np.arange(m), 0] = 1.0
    cand -= space.mul(eta_jets[:, None, :], xi_jets[None, :, :])

    chosen = np.zeros((want, m, space.ncoeff))
    remaining = list(range(m))
    for step in range(want):
        norms = [float(np.linalg.norm(cand[r][:, 0])) for r in remaining]
        best = int(np.argmax(norms))
        if norms[best] < _DBASIS_PIVOT:
            raise DegenerateFrame(
                "cannot span ker(eta): residual candidates below pivot floor"
            )
        r = remaining.pop(best)
        v = cand[r]
        norm_jet = space.sqrt(space.mul(v, v).sum(axis=0))
        v = space.div(v, norm_jet[None, :])
        chosen[step] = v
        rest = cand[remaining]
        coef = space.mul(rest, v).sum(axis=1)
        cand[remaining] = rest - space.mul(coef[:, None, :], v)
    return chosen


def signature_of(h: np.ndarray):
    """Inertia (positives, negatives) of a symmetric matrix by eigenvalue sign
    count; eigenvalues within ``_SIGNATURE_REL * max|eig|`` of zero count as
    neither."""
    vals = np.linalg.eigvalsh(0.5 * (h + h.T))
    scale = float(np.max(np.abs(vals))) if vals.size else 0.0
    if scale == 0.0:
        return (0, 0)
    thr = _SIGNATURE_REL * scale
    return (int(np.sum(vals > thr)), int(np.sum(vals < -thr)))


def metric_residual(pd: ParacontactData, h: np.ndarray):
    """Max defect of h(phi X, phi Y) + h(X, Y) - eta(X) eta(Y) over the frame,
    together with the inertia of h."""
    defect = (
        np.einsum("ki,lj,kl->ij", pd.phi, pd.phi, h)
        + h
        - np.outer(pd.eta, pd.eta)
    )
    return float(np.max(np.abs(defect))), signature_of(h)


def axiom_residuals(pd: ParacontactData) -> dict:
    """Residuals of the almost paracontact axioms; all construction-level,
    independent of any metric condition."""
    m = pd.eta.shape[0]
    out = {
        "phi_square": float(
            np.max(np.abs(pd.phi @ pd.phi - np.eye(m) + np.outer(pd.xi, pd.eta)))
        ),
        "eta_xi": float(abs(pd.eta @ pd.xi - 1.0)),
        "phi_xi": float(np.max(np.abs(pd.phi @ pd.xi))),
        "eta_phi": float(np.max(np.abs(pd.eta @ pd.phi))),
    }
    if pd.n == 0:
        out["eigen_split"] = 0.0
        out["eigen_counts_ok"] = True
        return out
    action = np.einsum("bk,kl,al->ba", pd.D_basis, pd.phi, pd.D_basis)
    vals = np.linalg.eigvals(action)
    out["eigen_split"] = float(np.max(np.minimum(np.abs(vals - 1), np.abs(vals + 1))))
    out["eigen_counts_ok"] = bool(int(np.sum(vals.real > 0)) == pd.n)
    return out


def _abs_h_norm_matrix(h: np.ndarray) -> np.ndarray:
    """|h| as a positive definite matrix (eigendecomposition with absolute
    eigenvalues); the norm used for vector-valued residuals."""
    _require_nondegenerate(h)
    vals, vecs = np.linalg.eigh(0.5 * (h + h.T))
    return (vecs * np.abs(vals)) @ vecs.T


def normality_residuals(pd: ParacontactData, induced: InducedData):
    """(Nijenhuis defect, operational defect).

    The first is the max-norm of [phi, phi] - 2 d eta (x) xi in coordinates;
    the second is the |h|-norm of S phi Z - phi S Z + tau(Z) xi over the
    ker(eta) basis, which is the authoritative check.
    """
    phi, dphi = pd.phi, pd.dphi
    nij = (
        np.einsum("li,lkj->kij", phi, dphi)
        - np.einsum("lj,lki->kij", phi, dphi)
        - np.einsum("kl,ilj->kij", phi, dphi)
        + np.einsum("kl,jli->kij", phi, dphi)
    )
    defect = nij - 2.0 * np.einsum("ij,k->kij", pd.d_eta, pd.xi)
    nijenhuis = float(np.max(np.abs(defect)))

    if pd.n == 0:
        return nijenhuis, 0.0
    habs = _abs_h_norm_matrix(induced.h)
    s, z = induced.S, pd.D_basis
    # Rows S phi Z_a - phi S Z_a + tau(Z_a) xi.
    v = (z @ pd.phi.T) @ s.T - (z @ s.T) @ pd.phi.T + np.outer(z @ induced.tau, pd.xi)
    return nijenhuis, float(np.max(np.sqrt(np.einsum("ak,ak->a", v @ habs, v))))


def contact_residual(pd: ParacontactData, h: np.ndarray, alpha: float) -> float:
    """Max defect of d eta(X, Y) = alpha * h(X, phi Y) over frame pairs."""
    return float(np.max(np.abs(pd.d_eta - alpha * (h @ pd.phi))))


def _require_nondegenerate(h: np.ndarray):
    """Raise DegenerateMetric where ``h_is_degenerate`` (the one degeneracy
    test, shared with ``induced_data``) says h has no usable inverse."""
    if h_is_degenerate(h):
        raise DegenerateMetric(f"h determinant {np.linalg.det(h):.3g} below floor")


def levi_civita(h: np.ndarray, dh: np.ndarray) -> np.ndarray:
    """Christoffel symbols of the (pseudo-)metric h from the Koszul formula.

    ``dh[l, i, j]`` is d_l h_{ij}; returns ``G[k, i, j]``, symmetric in (i, j).
    """
    _require_nondegenerate(h)
    h_inv = np.linalg.inv(h)
    t = dh + dh.transpose(1, 0, 2) - dh.transpose(1, 2, 0)
    return 0.5 * np.einsum("kl,ijl->kij", h_inv, t)


def sasakian_residual(pd: ParacontactData, induced: InducedData, alpha: float) -> float:
    """Max defect of (nabla-hat_X phi)(Y) = alpha(-h(X, Y) xi + eta(Y) X)
    over frame pairs, with nabla-hat the Levi-Civita connection of h."""
    g = levi_civita(induced.h, induced.dh)
    phi = pd.phi
    nab_phi = (
        pd.dphi
        + np.einsum("kil,lj->ikj", g, phi)
        - np.einsum("lij,kl->ikj", g, phi)
    )
    m = phi.shape[0]
    rhs = alpha * (
        -np.einsum("ij,k->ikj", induced.h, pd.xi)
        + np.einsum("j,ki->ikj", pd.eta, np.eye(m))
    )
    return float(np.max(np.abs(nab_phi - rhs)))
