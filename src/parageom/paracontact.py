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
None of them writes a failure record.  Where one needs h^{-1}, a degenerate
h raises DegenerateMetric at a single point; a stack uses the identity in its
place, and ``theorems.run_suite`` skips that sample in every battery that
inverts h.

All exterior derivatives use the convention
d w(X, Y) = (X(w(Y)) - Y(w(X)) - w([X, Y])) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFrame, DegenerateMetric, record_failures
from .hypersurface import InducedData, h_is_degenerate
from .paracomplex import apply_J

# Pivot floor for selecting independent spanning fields of ker(eta).
_DBASIS_PIVOT = 1e-8
# Relative eigenvalue threshold used when counting a signature (only there:
# whether h is degenerate is ``h_is_degenerate``'s determinant floor).
_SIGNATURE_REL = 1e-10


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
    """Build (phi, xi, eta) and the ker(eta) basis by decomposing J against
    the frame, everything carried as first-order jets so first derivatives
    come along.  A single point raises its failure; a stack keeps it."""
    frame = induced.frame
    space = frame.space
    m = frame.m

    je = apply_J(frame.tangent_jets, axis=-3)
    jc = apply_J(frame.C_jet, axis=-2)
    rhs = np.concatenate([je, jc[..., None, :]], axis=-2)
    tang, transv = frame.decompose_jets(rhs)

    phi_jets = tang[..., :m, :]  # [..., k, j, coeff]
    eta_jets = transv[..., :m, :]
    xi_jets = tang[..., m, :]
    rho = transv[..., m, :]

    deta = np.moveaxis(space.grad(eta_jets), -1, -2)  # [..., l, i]
    d_eta = 0.5 * (deta - np.swapaxes(deta, -1, -2))
    faults = induced.faults.copy()
    dbasis_jets = _kernel_basis_jets(space, induced.n, eta_jets, xi_jets, faults)

    return ParacontactData(
        n=induced.n,
        xi=xi_jets[..., 0],
        eta=eta_jets[..., 0],
        phi=phi_jets[..., 0],
        d_eta=d_eta,
        D_basis=dbasis_jets[..., 0],
        tangency=np.abs(rho[..., 0]),
        dxi=np.swapaxes(space.grad(xi_jets), -1, -2),
        deta=deta,
        dphi=np.moveaxis(space.grad(phi_jets), -1, -3),
        dbasis=space.grad(dbasis_jets),
        faults=faults,
    )


def _kernel_basis_jets(space, n, eta_jets, xi_jets, faults):
    """2n orthonormal jet fields spanning ker(eta), per sample.

    Starts from the projections Z_i = e_i - eta_i xi (smooth in u), then runs
    modified Gram-Schmidt in jet arithmetic with pivots chosen by the value
    norm at the point, so the selected combination is locally constant and
    the resulting fields stay jet-differentiable.  Each sample picks its own
    pivot; one whose best candidate falls below the pivot floor gets a
    DegenerateFrame in ``faults`` and a unit vector in its place.
    """
    m = space.num_vars
    want = 2 * n
    lead = eta_jets.shape[:-2]
    eta_jets = eta_jets.reshape(-1, m, space.ncoeff)
    xi_jets = xi_jets.reshape(-1, m, space.ncoeff)
    samples = np.arange(len(eta_jets))
    cand = np.zeros((len(samples), m, m, space.ncoeff))
    cand[:, np.arange(m), np.arange(m), 0] = 1.0
    cand -= space.mul(eta_jets[:, :, None, :], xi_jets[:, None, :, :])

    chosen = np.zeros((len(samples), want, m, space.ncoeff))
    used = np.zeros((len(samples), m), dtype=bool)
    unit = space.const(np.eye(m))
    for step in range(want):
        norms = np.where(used, -np.inf, np.linalg.norm(cand[..., 0], axis=-1))
        best = np.argmax(norms, axis=-1)
        low = record_failures(
            faults,
            (norms[samples, best] < _DBASIS_PIVOT).reshape(lead),
            lambda k: DegenerateFrame("cannot span ker(eta): residual candidates below pivot floor"),
        ).reshape(-1)
        used[samples, best] = True
        v = np.where(low[:, None, None], unit[best], cand[samples, best])
        norm_jet = space.sqrt(space.mul(v, v).sum(axis=-2))
        v = space.div(v, norm_jet[:, None, :])
        chosen[:, step] = v
        # Used candidates are projected too, but never read again.
        coef = space.mul(cand, v[:, None]).sum(axis=-2)
        cand = cand - space.mul(coef[..., None, :], v[:, None])
    return chosen.reshape(lead + chosen.shape[1:])


def signature_of(h: np.ndarray):
    """Inertia (positives, negatives) of a symmetric matrix by eigenvalue sign
    count; eigenvalues within ``_SIGNATURE_REL * max|eig|`` of zero count as
    neither.  A ``(..., m, m)`` stack gives a ``(..., 2)`` integer array."""
    vals = np.linalg.eigvalsh(0.5 * (h + np.swapaxes(h, -1, -2)))
    thr = _SIGNATURE_REL * np.abs(vals).max(axis=-1, initial=0.0)[..., None]
    counts = np.stack([np.sum(vals > thr, axis=-1), np.sum(vals < -thr, axis=-1)], axis=-1)
    return tuple(int(k) for k in counts) if h.ndim == 2 else counts


def metric_residual(pd: ParacontactData, h: np.ndarray) -> np.ndarray:
    """Defect of h(phi X, phi Y) + h(X, Y) - eta(X) eta(Y) over frame pairs."""
    return (
        np.einsum("...ki,...lj,...kl->...ij", pd.phi, pd.phi, h)
        + h
        - pd.eta[..., :, None] * pd.eta[..., None, :]
    )


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
    action = np.einsum("...bk,...kl,...al->...ba", pd.D_basis, pd.phi, pd.D_basis)
    vals = np.linalg.eigvals(action)
    out["eigen_split"] = np.minimum(np.abs(vals - 1), np.abs(vals + 1))
    out["eigen_counts_ok"] = np.sum(vals.real > 0, axis=-1) == pd.n
    return out


def degenerate_metric(h: np.ndarray) -> DegenerateMetric:
    """The failure of one degenerate h ``(m, m)``."""
    return DegenerateMetric(f"h determinant {np.linalg.det(h):.3g} below floor")


def _invertible(h: np.ndarray) -> np.ndarray:
    """h, with the identity in place of each h of a stack that
    ``h_is_degenerate`` (the one degeneracy test); a degenerate single point
    raises its DegenerateMetric."""
    bad = h_is_degenerate(h)
    if h.ndim == 2 and bad:
        raise degenerate_metric(h)
    return np.where(np.asarray(bad)[..., None, None], np.eye(h.shape[-1]), h)


def normality_residuals(pd: ParacontactData, induced: InducedData):
    """(Nijenhuis defect, operational defect).

    The first is [phi, phi] - 2 d eta (x) xi in coordinates; the second is
    the |h|-norm of S phi Z - phi S Z + tau(Z) xi for each Z of the ker(eta)
    basis (0.0 at n = 0, where it needs no h), which is the authoritative
    check.
    """
    phi, dphi = pd.phi, pd.dphi
    nij = (
        np.einsum("...li,...lkj->...kij", phi, dphi)
        - np.einsum("...lj,...lki->...kij", phi, dphi)
        - np.einsum("...kl,...ilj->...kij", phi, dphi)
        + np.einsum("...kl,...jli->...kij", phi, dphi)
    )
    nijenhuis = nij - 2.0 * np.einsum("...ij,...k->...kij", pd.d_eta, pd.xi)

    if pd.n == 0:
        return nijenhuis, np.zeros(pd.eta.shape[:-1])
    # |h| as a positive definite matrix: eigenvectors, absolute eigenvalues.
    h = _invertible(induced.h)
    vals, vecs = np.linalg.eigh(0.5 * (h + np.swapaxes(h, -1, -2)))
    habs = (vecs * np.abs(vals)[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    s_t, phi_t, z = np.swapaxes(induced.S, -1, -2), np.swapaxes(phi, -1, -2), pd.D_basis
    # Rows S phi Z_a - phi S Z_a + tau(Z_a) xi.
    tau_z = np.einsum("...ak,...k->...a", z, induced.tau)
    v = (z @ phi_t) @ s_t - (z @ s_t) @ phi_t + tau_z[..., :, None] * pd.xi[..., None, :]
    return nijenhuis, np.sqrt(np.einsum("...ak,...ak->...a", v @ habs, v))


def contact_residual(pd: ParacontactData, h: np.ndarray, alpha: float) -> np.ndarray:
    """Defect of d eta(X, Y) = alpha * h(X, phi Y) over frame pairs."""
    return pd.d_eta - alpha * (h @ pd.phi)


def levi_civita(h: np.ndarray, dh: np.ndarray) -> np.ndarray:
    """Christoffel symbols of the (pseudo-)metric h from the Koszul formula.

    ``dh[l, i, j]`` is d_l h_{ij}; returns ``G[k, i, j]``, symmetric in (i, j).
    """
    h_inv = np.linalg.inv(_invertible(h))
    t = dh + np.einsum("...lij->...ilj", dh) - np.einsum("...lij->...ijl", dh)
    return 0.5 * np.einsum("...kl,...ijl->...kij", h_inv, t)


def sasakian_residual(pd: ParacontactData, induced: InducedData, alpha: float) -> np.ndarray:
    """Defect of (nabla-hat_X phi)(Y) = alpha(-h(X, Y) xi + eta(Y) X) over
    frame pairs, with nabla-hat the Levi-Civita connection of h."""
    g = levi_civita(induced.h, induced.dh)
    phi = pd.phi
    nab_phi = (
        pd.dphi
        + np.einsum("...kil,...lj->...ikj", g, phi)
        - np.einsum("...lij,...kl->...ikj", g, phi)
    )
    m = phi.shape[-1]
    rhs = alpha * (
        -np.einsum("...ij,...k->...ikj", induced.h, pd.xi)
        + np.einsum("...j,ki->...ikj", pd.eta, np.eye(m))
    )
    return nab_phi - rhs
