"""Forward-mode differentiation with multivariate Taylor polynomials.

A jet stores the Taylor coefficients c_alpha = (d^alpha f / alpha!) of a
scalar quantity at a base point, for every multi-index alpha of total degree
<= ``order`` in ``num_vars`` chart variables.  Arithmetic on jets is
truncated-polynomial arithmetic, so derivatives up to that order come out
exact (no step sizes, no cancellation beyond float64 roundoff).

The geometry modules use two orders.  The immersion f and the transversal C
are evaluated at order 3, since the structure equations need the first
derivatives of d_j d_i f and d_i C.  Everything after those two derivative
steps (frame decompositions, Gamma/h/S/tau, phi/xi/eta) is carried at order
1: a value and a gradient.  Coefficients are listed by degree, so the
order-1 layout is the first ``num_vars + 1`` coefficients of any higher one
and truncation is a slice.

Two layers live here:

* :class:`Jet3` — scalar order-3 jets with operator overloading, the
  friendly API.
* :class:`JetSpace` — the per-dimension, per-order coefficient tables plus
  vectorized kernels over arrays whose *last* axis is the coefficient axis.
  The geometry modules use this layer directly so whole tensors of jets move
  through single numpy calls.

Truncation caveat: differentiating a jet shifts coefficients down one order,
so the result carries exact data only up to degree ``order - k`` after ``k``
derivatives.  Callers must not extract higher orders from shifted jets; the
geometry code never does.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import DegenerateJet, OrderExceeded, ShapeError

MAX_ORDER = 3

# Division/sqrt guards.  |b0| below this is treated as zero.
_DIV_FLOOR = 1e-300


class JetSpace:
    """Coefficient layout and vectorized kernels for jets of total degree
    <= ``order`` in ``num_vars`` variables.

    Arrays handled by the kernels have shape ``(..., ncoeff)``; leading axes
    are free, so a whole matrix of jets is just an ``(n, m, ncoeff)`` array.
    Instances are cached; get one via :func:`jet_space`.
    """

    def __init__(self, num_vars: int, order: int = MAX_ORDER):
        if num_vars < 1:
            raise ShapeError(f"need at least one variable, got {num_vars}")
        if not 1 <= order <= MAX_ORDER:
            raise ShapeError(f"jet order must be in 1..{MAX_ORDER}, got {order}")
        self.num_vars = num_vars
        self.order = order
        alphas = [(0,) * num_vars]
        for deg in range(1, order + 1):
            for combo in itertools.combinations_with_replacement(range(num_vars), deg):
                alpha = [0] * num_vars
                for v in combo:
                    alpha[v] += 1
                alphas.append(tuple(alpha))
        self.alphas: tuple[tuple[int, ...], ...] = tuple(alphas)
        self.ncoeff = len(alphas)
        self.index: dict[tuple[int, ...], int] = {a: i for i, a in enumerate(alphas)}
        degrees = np.array([sum(a) for a in alphas])

        # Multiplication: gather factor pairs, multiply, scatter-add into the
        # destination coefficient via one dense matmul.
        left, right, dest = [], [], []
        for i, a in enumerate(alphas):
            for j, b in enumerate(alphas):
                if degrees[i] + degrees[j] <= order:
                    left.append(i)
                    right.append(j)
                    dest.append(self.index[tuple(x + y for x, y in zip(a, b))])
        self._mul_left = np.array(left)
        self._mul_right = np.array(right)
        scatter = np.zeros((len(dest), self.ncoeff))
        scatter[np.arange(len(dest)), dest] = 1.0
        self._mul_scatter = scatter

        # Partial-derivative tables: d_i c[beta] = c[beta + e_i] * (beta_i + 1)
        # for the betas of degree < order, which are the leading positions.
        low = alphas[: int(np.sum(degrees < order))]
        self._d_src = np.array(
            [[self.index[b[:i] + (b[i] + 1,) + b[i + 1 :]] for b in low] for i in range(num_vars)]
        )
        self._d_fac = np.array([[b[i] + 1.0 for b in low] for i in range(num_vars)])

    # ------------------------------------------------------------------
    # constructors

    def const(self, value) -> np.ndarray:
        """Jet(s) of a constant; ``value`` may carry leading axes."""
        value = np.asarray(value, dtype=float)
        out = np.zeros(value.shape + (self.ncoeff,))
        out[..., 0] = value
        return out

    def seed(self, index: int, value: float) -> np.ndarray:
        """Jet of the coordinate function u^index at base value ``value``."""
        if not 0 <= index < self.num_vars:
            raise IndexError(
                f"variable index {index} out of range for {self.num_vars} variables"
            )
        out = np.zeros(self.ncoeff)
        out[0] = float(value)
        out[1 + index] = 1.0
        return out

    def seeds(self, point) -> np.ndarray:
        """All coordinate jets at a chart point, stacked as ``(num_vars, ncoeff)``."""
        point = np.asarray(point, dtype=float)
        if point.shape != (self.num_vars,):
            raise ShapeError(f"chart point shape {point.shape} != ({self.num_vars},)")
        out = np.zeros((self.num_vars, self.ncoeff))
        out[:, 0] = point
        out[np.arange(self.num_vars), 1 + np.arange(self.num_vars)] = 1.0
        return out

    # ------------------------------------------------------------------
    # arithmetic kernels

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a[..., self._mul_left] * b[..., self._mul_right]) @ self._mul_scatter

    def matvec(self, m: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Jet matrix (p, q, ncoeff) times jet stack (q, ..., ncoeff)."""
        g = np.einsum("pqt,q...t->p...t", m[..., self._mul_left], v[..., self._mul_right])
        return g @ self._mul_scatter

    def compose(self, a: np.ndarray, c0, *c) -> np.ndarray:
        """c0 + c1*d + c2*d^2 + ... with d = a - a0, up to the space's order;
        ck broadcast over leads."""
        d = a.copy()
        d[..., 0] = 0.0
        out = np.asarray(c[0])[..., None] * d
        power = d
        for ck in c[1 : self.order]:
            power = self.mul(power, d)
            out += np.asarray(ck)[..., None] * power
        out[..., 0] += c0
        return out

    def inv(self, b: np.ndarray) -> np.ndarray:
        b0 = b[..., 0]
        if np.any(np.abs(b0) <= _DIV_FLOOR):
            raise DegenerateJet("division by jet with (near-)zero constant term")
        r = 1.0 / b0
        return self.compose(b, r, -(r**2), r**3, -(r**4))

    def div(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.mul(a, self.inv(b))

    def sqrt(self, a: np.ndarray) -> np.ndarray:
        a0 = a[..., 0]
        if np.any(a0 <= 0.0):
            raise DegenerateJet("sqrt of jet with non-positive constant term")
        s = np.sqrt(a0)
        return self.compose(a, s, 0.5 / s, -0.125 / s**3, 0.0625 / s**5)

    def exp(self, a: np.ndarray) -> np.ndarray:
        e = np.exp(a[..., 0])
        return self.compose(a, e, e, e / 2.0, e / 6.0)

    def cosh(self, a: np.ndarray) -> np.ndarray:
        c, s = np.cosh(a[..., 0]), np.sinh(a[..., 0])
        return self.compose(a, c, s, c / 2.0, s / 6.0)

    def sinh(self, a: np.ndarray) -> np.ndarray:
        c, s = np.cosh(a[..., 0]), np.sinh(a[..., 0])
        return self.compose(a, s, c, s / 2.0, c / 6.0)

    # ------------------------------------------------------------------
    # calculus / extraction

    def deriv(self, a: np.ndarray, i: int) -> np.ndarray:
        """Partial derivative along variable ``i`` (valid one order lower)."""
        out = np.zeros_like(a)
        out[..., : self._d_src.shape[1]] = a[..., self._d_src[i]] * self._d_fac[i]
        return out

    def derivs(self, a: np.ndarray, order: int) -> np.ndarray:
        """Every first partial of ``a`` as a jet of ``order`` < ``self.order``
        (the leading coefficients of this layout): shape
        ``(..., num_vars, ncoeff of that order)``.  Only the coefficients of
        degree <= ``order + 1`` of ``a`` are read, so ``a`` may be truncated
        to them."""
        if not 0 <= order < self.order:
            raise OrderExceeded(f"partials of order-{self.order} jets reach order {self.order - 1}")
        k = math.comb(self.num_vars + order, order)
        return a[..., self._d_src[:, :k]] * self._d_fac[:, :k]

    def grad(self, a: np.ndarray) -> np.ndarray:
        """First partials as the trailing axis: shape ``(..., num_vars)``."""
        return a[..., 1 : 1 + self.num_vars]

    def partial(self, a: np.ndarray, alpha) -> np.ndarray:
        alpha = tuple(int(x) for x in alpha)
        if len(alpha) != self.num_vars:
            raise ShapeError(
                f"multi-index length {len(alpha)} != num_vars {self.num_vars}"
            )
        if any(x < 0 for x in alpha):
            raise ShapeError(f"negative entry in multi-index {alpha}")
        if sum(alpha) > self.order:
            raise OrderExceeded(f"|{alpha}| = {sum(alpha)} exceeds order {self.order}")
        fac = 1.0
        for x in alpha:
            fac *= math.factorial(x)
        return a[..., self.index[alpha]] * fac


def jet_space(num_vars: int, order: int = MAX_ORDER) -> JetSpace:
    """The shared JetSpace for ``num_vars`` and ``order``: one instance per
    pair, however the arguments are spelled."""
    return _jet_space(num_vars, order)


@lru_cache(maxsize=None)
def _jet_space(num_vars: int, order: int) -> JetSpace:
    return JetSpace(num_vars, order)


class Jet3:
    """A scalar truncated Taylor expansion (total degree <= 3).

    Immutable by convention: operations return new jets.  Supports +, -, *, /
    with other jets of the same dimension or with plain numbers.
    """

    __slots__ = ("space", "coeffs")

    def __init__(self, space: JetSpace, coeffs: np.ndarray):
        self.space = space
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.shape != (space.ncoeff,):
            raise ShapeError(
                f"coefficient vector shape {self.coeffs.shape} != ({space.ncoeff},)"
            )

    # -- construction ---------------------------------------------------

    @classmethod
    def constant(cls, value: float, num_vars: int) -> "Jet3":
        return cls(jet_space(num_vars), jet_space(num_vars).const(value))

    @classmethod
    def variable(cls, index: int, value: float, num_vars: int) -> "Jet3":
        return cls(jet_space(num_vars), jet_space(num_vars).seed(index, value))

    # -- properties -----------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self.space.num_vars

    @property
    def value(self) -> float:
        return float(self.coeffs[0])

    def coefficient(self, alpha) -> float:
        """Raw Taylor coefficient (derivative / alpha!)."""
        alpha = tuple(int(x) for x in alpha)
        if sum(alpha) > self.space.order:
            raise OrderExceeded(f"|{alpha}| exceeds order {self.space.order}")
        return float(self.coeffs[self.space.index[alpha]])

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other) -> np.ndarray:
        if isinstance(other, Jet3):
            if other.space is not self.space:
                raise ShapeError("jets live in different variable spaces")
            return other.coeffs
        return self.space.const(float(other))

    def __add__(self, other):
        return Jet3(self.space, self.coeffs + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return Jet3(self.space, self.coeffs - self._coerce(other))

    def __rsub__(self, other):
        return Jet3(self.space, self._coerce(other) - self.coeffs)

    def __neg__(self):
        return Jet3(self.space, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Jet3(self.space, self.coeffs * other)
        return Jet3(self.space, self.space.mul(self.coeffs, self._coerce(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Jet3(self.space, self.coeffs / other)
        return Jet3(self.space, self.space.div(self.coeffs, self._coerce(other)))

    def __rtruediv__(self, other):
        return Jet3(self.space, self.space.div(self._coerce(other), self.coeffs))

    def __repr__(self):
        terms = {
            a: c for a, c in zip(self.space.alphas, self.coeffs) if c != 0.0
        }
        return f"Jet3(num_vars={self.num_vars}, coeffs={terms})"


def sqrt(a: Jet3) -> Jet3:
    return Jet3(a.space, a.space.sqrt(a.coeffs))


def exp(a: Jet3) -> Jet3:
    return Jet3(a.space, a.space.exp(a.coeffs))


def cosh(a: Jet3) -> Jet3:
    return Jet3(a.space, a.space.cosh(a.coeffs))


def sinh(a: Jet3) -> Jet3:
    return Jet3(a.space, a.space.sinh(a.coeffs))


# ----------------------------------------------------------------------
# Flat operation surface (dispatch by name), mirrors the library contract.

_ARITH = {
    "add": Jet3.__add__,
    "sub": Jet3.__sub__,
    "mul": Jet3.__mul__,
    "div": Jet3.__truediv__,
}

_ANALYTIC = {"sqrt": sqrt, "cosh": cosh, "sinh": sinh, "exp": exp}


def seed_variable(index: int, value: float, num_vars: int) -> Jet3:
    """Jet of the coordinate function u^index: value, slope 1, rest 0."""
    return Jet3.variable(index, value, num_vars)


def arith(a: Jet3, b: Jet3, op: str) -> Jet3:
    """Combine two jets with one of {add, sub, mul, div}."""
    try:
        f = _ARITH[op]
    except KeyError:
        raise ValueError(f"unknown arithmetic op {op!r}") from None
    return f(a, b)


def analytic(a: Jet3, fn: str) -> Jet3:
    """Apply one of the built-in analytic functions {sqrt, cosh, sinh, exp}."""
    try:
        f = _ANALYTIC[fn]
    except KeyError:
        raise ValueError(f"unknown analytic function {fn!r}") from None
    return f(a)


def extract_partial(a: Jet3, alpha) -> float:
    """The partial derivative d^alpha at the base point (coefficient * alpha!)."""
    return float(a.space.partial(a.coeffs, alpha))
