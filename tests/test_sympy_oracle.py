"""Exact Taylor coefficients of the radial immersion, from sympy.

For a quadric and a perturbed scene with n = 1 and dyadic rational inputs
(exact in binary), the coefficients of degree <= 3 of f = y / sqrt(y'Ay) and
of C = f + eps (w - (Aw . f) f - (AJw . f) J f) are computed exactly: every
polynomial in exact rational arithmetic, truncated at degree 3, and the one
irrational factor k = (y0'Ay0)^(-1/2) at 30 digits.  The engine's order-3
jets must match them to rounding.
"""

import mpmath
import numpy as np
import sympy
from sympy import QQ, Rational, ring

from parageom.hypersurface import eval_immersion, perturbed_scene, quadric_scene
from parageom.jets import MAX_ORDER, jet_space
from parageom.paracomplex import QuadricSpec

RTOL = 1e-13

HALF, QUARTER, EIGHTH = Rational(1, 2), Rational(1, 4), Rational(1, 8)
P = [[1, QUARTER], [QUARTER, -HALF]]
R_SKEW = [[0, HALF], [-HALF, 0]]
BASE_POINT = [1, 0, 0, 0]
# Rows orthogonal to A x0 = (1, 1/4, 0, 1/2).
BASIS = [[0, 0, 1, 0], [QUARTER, -1, 0, 0], [HALF, 0, 0, -1]]
DIRECTION = [HALF, -QUARTER, EIGHTH, 1]
EPSILON = EIGHTH
SAMPLES = [[EIGHTH, -QUARTER, Rational(3, 16)], [Rational(-3, 32), Rational(1, 16), EIGHTH]]


def floats(rows):
    return np.array(rows, dtype=float)


def quadric_matrix():
    p, r = sympy.Matrix(P), sympy.Matrix(R_SKEW)
    return sympy.Matrix(sympy.BlockMatrix([[p, r], [-r, -p]]))


def qq(x):
    return QQ.from_sympy(sympy.sympify(x))


def truncate(ring_, poly):
    return ring_({mon: c for mon, c in poly.terms() if sum(mon) <= MAX_ORDER})


def exact_jets(u0, epsilon=None):
    """(kappa, F, G): f = kappa F and C = kappa F + G, with F and G lists of
    truncated polynomials over QQ in the chart offsets d, one per ambient
    component (G is zero for the quadric)."""
    a = quadric_matrix()
    ring_, *d = ring("d0,d1,d2", QQ)
    y = [
        qq(BASE_POINT[r]) + sum(qq(BASIS[i][r]) * (qq(u0[i]) + d[i]) for i in range(3))
        for r in range(4)
    ]
    q = sum(y[r] * sum(qq(a[r, s]) * y[s] for s in range(4)) for r in range(4))
    q0 = q.coeff(1)
    delta = q - q0
    # q^(-1/2) = kappa sum_k binom(-1/2, k) (delta / q0)^k, kappa = q0^(-1/2).
    series, power = ring_(0), ring_(1)
    for k in range(MAX_ORDER + 1):
        series += qq(sympy.binomial(-HALF, k)) / q0**k * power
        power = truncate(ring_, power * delta)
    big_f = [truncate(ring_, yr * series) for yr in y]
    with mpmath.workdps(30):
        kappa = 1 / mpmath.sqrt(mpmath.mpf(q0.numerator) / q0.denominator)
    if epsilon is None:
        return kappa, big_f, [ring_(0)] * 4
    # (Aw . f) f = kappa^2 (Aw . F) F with kappa^2 = 1 / q0, likewise for J w.
    w = sympy.Matrix(DIRECTION)
    jw = sympy.Matrix(DIRECTION[2:] + DIRECTION[:2])
    aw, ajw = a * w, a * jw
    s1 = sum(qq(aw[r]) * big_f[r] for r in range(4))
    s2 = sum(qq(ajw[r]) * big_f[r] for r in range(4))
    jf = big_f[2:] + big_f[:2]
    eps = qq(epsilon)
    big_g = [
        truncate(ring_, eps * qq(DIRECTION[r]) - eps / q0 * (s1 * big_f[r] + s2 * jf[r]))
        for r in range(4)
    ]
    return kappa, big_f, big_g


def exact_array(space, kappa, polys):
    """kappa times the polynomials, as ``(len(polys), ncoeff)`` jets."""
    out = np.zeros((len(polys), space.ncoeff))
    with mpmath.workdps(30):
        for r, poly in enumerate(polys):
            for mon, c in poly.terms():
                out[r, space.index[mon]] = float(kappa * mpmath.mpf(c.numerator) / c.denominator)
    return out


def assert_matches(got, want):
    gap = float(np.max(np.abs(got - want)))
    assert gap <= RTOL * float(np.max(np.abs(want))), gap


def spec():
    return QuadricSpec(n=1, P=floats(P), R_skew=floats(R_SKEW))


def test_quadric_jets_match_exact_taylor_coefficients():
    scene = quadric_scene(
        spec(), base_point=floats(BASE_POINT), basis=floats(BASIS), samples=floats(SAMPLES)
    )
    f, c = eval_immersion(scene, floats(SAMPLES))
    space = jet_space(3)
    for i, u0 in enumerate(SAMPLES):
        kappa, big_f, _ = exact_jets(u0)
        want = exact_array(space, kappa, big_f)
        assert_matches(f[i], want)
        assert_matches(c[i], want)


def test_perturbed_jets_match_exact_taylor_coefficients():
    scene = perturbed_scene(
        spec(),
        float(EPSILON),
        base_point=floats(BASE_POINT),
        basis=floats(BASIS),
        direction=floats(DIRECTION),
        samples=floats(SAMPLES),
    )
    f, c = eval_immersion(scene, floats(SAMPLES))
    space = jet_space(3)
    for i, u0 in enumerate(SAMPLES):
        kappa, big_f, big_g = exact_jets(u0, EPSILON)
        want_f = exact_array(space, kappa, big_f)
        assert_matches(f[i], want_f)
        assert_matches(c[i], want_f + exact_array(space, 1, big_g))
