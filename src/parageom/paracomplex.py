"""The ambient paracomplex involution and the block quadric matrices.

The ambient space R^{2n+2} carries the half-swap involution J that exchanges
the first and second halves of a vector.  Hyperquadrics x' A x = 1 whose
matrix anticommutes with J are exactly those with the block shape

    A = [[ P,  R_skew],
         [-R_skew, -P ]],   P symmetric, R_skew antisymmetric,

and they are the model surfaces for everything this package verifies:
the induced structure on them is metric, with shape operator -Id and
vanishing transversal form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GenerationError, ShapeError

# Acceptance threshold on |det A| for randomly drawn quadric matrices; keeps
# the induced second fundamental form well-conditioned at desk scale.
DET_FLOOR = 1e-6
_MAX_REDRAWS = 1000
# A quadric matrix is singular where sigma_min <= A_SV_FLOOR * sigma_max, a
# ratio that depends neither on A's scale nor on its size.
A_SV_FLOOR = 1e-12


def apply_J(v: np.ndarray, axis: int = 0) -> np.ndarray:
    """Swap the two halves of an even-length vector (an involution).

    Also works on stacks of jet coefficients: only the ambient axis ``axis``
    (the first, unless the stack carries leading sample axes) is swapped.
    """
    v = np.asarray(v)
    dim = v.shape[axis]
    if dim % 2 != 0 or dim == 0:
        raise ShapeError(f"half-swap needs even positive length, got {dim}")
    at = (slice(None),) * (axis % v.ndim)
    half = dim // 2
    return np.concatenate([v[at + (slice(half, None),)], v[at + (slice(None, half),)]], axis=axis)


def anticommutator_residual(a: np.ndarray) -> np.ndarray:
    """J A + A J, the raw residual matrix; zero exactly for block matrices
    [[P,R],[-R,-P]]."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    return apply_J(a, 0) + apply_J(a, 1)


@dataclass
class QuadricSpec:
    """Defining data of a centered hyperquadric x' A x = 1 anticommuting with J.

    ``P`` is symmetrized and ``R_skew`` antisymmetrized on construction, so
    the block identities (A symmetric, J A = -A J) hold structurally.
    """

    n: int
    P: np.ndarray
    R_skew: np.ndarray
    A: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.n < 0:
            raise ShapeError(f"n must be >= 0, got {self.n}")
        size = self.n + 1
        P = np.asarray(self.P, dtype=float)
        R = np.asarray(self.R_skew, dtype=float)
        if P.shape != (size, size) or R.shape != (size, size):
            raise ShapeError(
                f"P and R_skew must be {size}x{size}, got {P.shape} and {R.shape}"
            )
        # Huge entries overflow here, quietly: the finiteness check rejects them.
        with np.errstate(over="ignore", invalid="ignore"):
            self.P = 0.5 * (P + P.T)
            self.R_skew = 0.5 * (R - R.T)
        self.A = np.block(
            [[self.P, self.R_skew], [-self.R_skew, -self.P]]
        )
        if not np.isfinite(self.A).all():
            raise ShapeError("quadric matrix entries must be finite")
        # Divided by max|A| first, so that the SVD of a huge A cannot overflow.
        sv = np.linalg.svd(self.A / (np.max(np.abs(self.A)) or 1.0), compute_uv=False)
        if not sv[-1] > A_SV_FLOOR * sv[0]:
            raise ShapeError("quadric matrix is (numerically) singular")

    @property
    def ambient_dim(self) -> int:
        return 2 * self.n + 2

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "P": self.P.tolist(),
            "R_skew": self.R_skew.tolist(),
        }


def random_quadric_spec(n: int, seed: int) -> QuadricSpec:
    """Draw a reproducible nondegenerate spec with entries uniform in [-1, 1].

    Redraws until |det A| clears :data:`DET_FLOOR`; raises
    :class:`GenerationError` after 1000 attempts (practically unreachable).
    """
    rng = np.random.default_rng(seed)
    return draw_quadric_spec(n, rng)


def draw_quadric_spec(n: int, rng: np.random.Generator) -> QuadricSpec:
    """Like :func:`random_quadric_spec` but drawing from a caller-owned stream."""
    size = n + 1
    for _ in range(_MAX_REDRAWS):
        try:
            spec = QuadricSpec(
                n=n,
                P=rng.uniform(-1.0, 1.0, size=(size, size)),
                R_skew=rng.uniform(-1.0, 1.0, size=(size, size)),
            )
        except ShapeError:
            continue
        if abs(np.linalg.det(spec.A)) > DET_FLOOR:
            return spec
    raise GenerationError(
        f"no quadric with |det A| > {DET_FLOOR} after {_MAX_REDRAWS} draws"
    )

