"""Jet arithmetic: frozen expansions, independent oracles, algebraic laws."""

import itertools
import math

import numpy as np
import pytest

from parageom import (
    DegenerateJet,
    Jet3,
    OrderExceeded,
    analytic,
    arith,
    extract_partial,
    jet_space,
    seed_variable,
)
from parageom.errors import ShapeError
from parageom.jets import sqrt


def random_jet(rng, num_vars, scale=1.0, min_const=None):
    space = jet_space(num_vars)
    coeffs = rng.uniform(-scale, scale, size=space.ncoeff)
    if min_const is not None:
        coeffs[0] = rng.uniform(min_const, min_const + 2.0) * rng.choice([-1.0, 1.0])
    return Jet3(space, coeffs)


# ----------------------------------------------------------------------
# seeding and extraction


def test_seed_variable_univariate():
    j = seed_variable(0, 2.0, 1)
    assert j.coefficient((0,)) == 2.0
    assert j.coefficient((1,)) == 1.0
    assert j.coefficient((2,)) == 0.0
    assert j.coefficient((3,)) == 0.0


def test_seed_variable_trivariate():
    j = seed_variable(1, 0.0, 3)
    assert j.value == 0.0
    assert extract_partial(j, (0, 1, 0)) == 1.0
    assert extract_partial(j, (1, 0, 0)) == 0.0
    assert extract_partial(j, (0, 0, 1)) == 0.0


def test_linear_function_has_zero_second_derivative():
    j = seed_variable(0, 5.0, 2)
    assert extract_partial(j, (2, 0)) == 0.0


def test_seed_variable_index_out_of_range():
    with pytest.raises(IndexError):
        seed_variable(3, 0.0, 3)
    with pytest.raises(IndexError):
        seed_variable(-1, 0.0, 2)


def test_extract_partial_order_exceeded():
    j = seed_variable(0, 1.0, 2)
    with pytest.raises(OrderExceeded):
        extract_partial(j, (2, 2))


def test_extract_partial_length_mismatch():
    j = seed_variable(0, 1.0, 2)
    with pytest.raises(ShapeError):
        extract_partial(j, (1,))


# ----------------------------------------------------------------------
# arithmetic: frozen small cases


def test_square_of_coordinate():
    u = seed_variable(0, 3.0, 1)
    sq = arith(u, u, "mul")
    assert sq.coefficient((0,)) == pytest.approx(9.0)
    assert sq.coefficient((1,)) == pytest.approx(6.0)
    assert sq.coefficient((2,)) == pytest.approx(1.0)
    assert sq.coefficient((3,)) == 0.0


def test_geometric_series_inverse():
    # 1/(1+u) around u=0 has alternating coefficients 1, -1, 1, -1.
    u = seed_variable(0, 0.0, 1)
    one = Jet3.constant(1.0, 1)
    inv = arith(one, one + u, "div")
    np.testing.assert_allclose(inv.coeffs, [1.0, -1.0, 1.0, -1.0], atol=1e-15)


def test_add_sub_group_identity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = random_jet(rng, 3)
        b = random_jet(rng, 3)
        back = arith(a, arith(b, b, "sub"), "add")
        np.testing.assert_array_equal(back.coeffs, a.coeffs)


def test_mixed_partial_of_product():
    u = seed_variable(0, 1.5, 2)
    v = seed_variable(1, -0.5, 2)
    assert extract_partial(u * v, (1, 1)) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# analytic functions: frozen series


def test_sqrt_binomial_series():
    # sqrt(1+u) = 1 + u/2 - u^2/8 + u^3/16 + ...
    u = seed_variable(0, 0.0, 1)
    s = analytic(1.0 + u, "sqrt")
    np.testing.assert_allclose(s.coeffs, [1.0, 0.5, -0.125, 0.0625], atol=1e-15)


def test_cosh_series_at_zero():
    t = seed_variable(0, 0.0, 1)
    c = analytic(t, "cosh")
    np.testing.assert_allclose(c.coeffs, [1.0, 0.0, 0.5, 0.0], atol=1e-15)


def test_sqrt_of_constant():
    s = sqrt(Jet3.constant(4.0, 2))
    assert s.value == pytest.approx(2.0)
    assert np.all(s.coeffs[1:] == 0.0)


def test_sqrt_rejects_nonpositive():
    with pytest.raises(DegenerateJet):
        sqrt(Jet3.constant(-1.0, 1))
    with pytest.raises(DegenerateJet):
        sqrt(Jet3.constant(0.0, 1))


def test_division_by_zero_constant_term():
    u = seed_variable(0, 0.0, 1)
    with pytest.raises(DegenerateJet):
        arith(Jet3.constant(1.0, 1), u, "div")


def test_unknown_op_names():
    a = Jet3.constant(1.0, 1)
    with pytest.raises(ValueError):
        arith(a, a, "pow")
    with pytest.raises(ValueError):
        analytic(a, "tanh")


# ----------------------------------------------------------------------
# finite-difference oracles

_STENCILS = {
    # order: (offsets, weights, h); all O(h^4) truncation error.  Steps are
    # tuned per order against float64 roundoff (eps/h^order) growth.
    1: ((-2, -1, 1, 2), (1 / 12, -8 / 12, 8 / 12, -1 / 12), 1e-3),
    2: ((-2, -1, 0, 1, 2), (-1 / 12, 16 / 12, -30 / 12, 16 / 12, -1 / 12), 1e-2),
    3: ((-3, -2, -1, 1, 2, 3), (1 / 8, -1, 13 / 8, -13 / 8, 1, -1 / 8), 5e-3),
}


def fd_derivative(f, x, order):
    offsets, weights, h = _STENCILS[order]
    return sum(w * f(x + k * h) for k, w in zip(offsets, weights)) / h**order


def jet_univariate_derivatives(fn_name, x):
    t = seed_variable(0, x, 1)
    j = analytic(t, fn_name)
    return [extract_partial(j, (k,)) for k in (1, 2, 3)]


def test_cosh_second_derivative_vs_plain_central_difference():
    # Frozen oracle from the 3-point stencil at t=0.3, step 1e-4.
    t0, h = 0.3, 1e-4
    fd = (math.cosh(t0 + h) - 2 * math.cosh(t0) + math.cosh(t0 - h)) / h**2
    jet = extract_partial(analytic(seed_variable(0, t0, 1), "cosh"), (2,))
    assert abs(jet - fd) / abs(fd) < 1e-6


@pytest.mark.parametrize("fn_name", ["sqrt", "cosh", "sinh", "exp"])
def test_analytic_derivatives_match_finite_differences(fn_name):
    rng = np.random.default_rng(42)
    scalar = {
        "sqrt": math.sqrt,
        "cosh": math.cosh,
        "sinh": math.sinh,
        "exp": math.exp,
    }[fn_name]
    for _ in range(25):
        # sqrt base points stay >= 1: closer to 0 the stencil's own
        # truncation error exceeds the comparison tolerance.
        x = rng.uniform(1.0, 3.0) if fn_name == "sqrt" else rng.uniform(-1.5, 1.5)
        derivs = jet_univariate_derivatives(fn_name, x)
        for order in (1, 2, 3):
            fd = fd_derivative(scalar, x, order)
            assert abs(derivs[order - 1] - fd) <= 1e-6 * max(1.0, abs(fd))


# ----------------------------------------------------------------------
# algebraic properties on random jets


def multi_indices(num_vars, max_order=3):
    out = []
    for alpha in itertools.product(range(max_order + 1), repeat=num_vars):
        if 0 < sum(alpha) <= max_order:
            out.append(alpha)
    return out


def leibniz_expansion(a, b, alpha):
    """Independent Leibniz-rule evaluation of d^alpha(a*b)."""
    total = 0.0
    ranges = [range(k + 1) for k in alpha]
    for beta in itertools.product(*ranges):
        gamma = tuple(k - j for k, j in zip(alpha, beta))
        binom = 1.0
        for k, j in zip(alpha, beta):
            binom *= math.comb(k, j)
        total += binom * extract_partial(a, beta) * extract_partial(b, gamma)
    return total


def test_leibniz_rule_random_jets():
    rng = np.random.default_rng(3)
    for num_vars in (1, 2, 3):
        for _ in range(10):
            a = random_jet(rng, num_vars)
            b = random_jet(rng, num_vars)
            prod = a * b
            for alpha in multi_indices(num_vars):
                want = leibniz_expansion(a, b, alpha)
                got = extract_partial(prod, alpha)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_division_inverts_multiplication():
    rng = np.random.default_rng(11)
    for num_vars in (1, 2, 4):
        for _ in range(10):
            a = random_jet(rng, num_vars)
            b = random_jet(rng, num_vars, min_const=0.5)
            back = (a * b) / b
            np.testing.assert_allclose(back.coeffs, a.coeffs, rtol=0, atol=1e-12)


def test_scalar_operator_mixing():
    u = seed_variable(0, 2.0, 1)
    j = 2.0 * u - 1.0 + u / 2.0
    assert j.value == pytest.approx(4.0)
    assert extract_partial(j, (1,)) == pytest.approx(2.5)
    r = 1.0 / (1.0 + u)
    assert r.value == pytest.approx(1.0 / 3.0)


def test_deriv_kernel_shifts_orders():
    # d/du of u^3 at u=2 is 3u^2: value 12, slope 12, curvature 6.
    space = jet_space(1)
    u = space.seed(0, 2.0)
    cube = space.mul(space.mul(u, u), u)
    d = space.deriv(cube, 0)
    assert d[0] == pytest.approx(12.0)
    assert space.partial(d, (1,)) == pytest.approx(12.0)
    assert space.partial(d, (2,)) == pytest.approx(6.0)


# ----------------------------------------------------------------------
# lower-order spaces: prefix layout and truncation-equivalent kernels


@pytest.mark.parametrize("num_vars", [1, 3, 9])
def test_lower_order_layouts_are_prefixes(num_vars):
    full = jet_space(num_vars)
    for order in (1, 2):
        low = jet_space(num_vars, order)
        assert low.order == order
        assert low.alphas == full.alphas[: low.ncoeff]
        assert all(sum(a) <= order for a in low.alphas)
    # Order 1 is value then gradient.
    assert jet_space(num_vars, 1).ncoeff == num_vars + 1


@pytest.mark.parametrize("num_vars", [1, 7])
def test_jet_space_is_one_instance_per_order(num_vars):
    three = jet_space(num_vars)
    assert three is jet_space(num_vars, 3) is jet_space(num_vars, order=3)
    assert jet_space(num_vars, 1) is jet_space(num_vars, order=1) is not three


def test_jet_space_rejects_bad_order():
    for order in (0, 4):
        with pytest.raises(ShapeError):
            jet_space(2, order)


@pytest.mark.parametrize("num_vars", [1, 2, 5])
def test_order1_kernels_equal_truncated_order3(num_vars):
    rng = np.random.default_rng(num_vars)
    s1, s3 = jet_space(num_vars, 1), jet_space(num_vars)
    k = s1.ncoeff
    a = rng.normal(size=(4, 3, s3.ncoeff))
    b = rng.normal(size=(4, 3, s3.ncoeff))
    b[..., 0] = rng.uniform(0.5, 2.0, size=(4, 3))
    np.testing.assert_array_equal(s1.mul(a[..., :k], b[..., :k]), s3.mul(a, b)[..., :k])
    np.testing.assert_array_equal(s1.sqrt(b[..., :k]), s3.sqrt(b)[..., :k])
    np.testing.assert_array_equal(s1.div(a[..., :k], b[..., :k]), s3.div(a, b)[..., :k])
    m = rng.normal(size=(3, 4, s3.ncoeff))
    np.testing.assert_array_equal(
        s1.matvec(m[..., :k], a[..., :k]), s3.matvec(m, a)[..., :k]
    )


# ----------------------------------------------------------------------
# product kernels against a naive truncated product


def naive_triples(space, nonconstant=False):
    """Every (left, right, dest) with alpha_left + alpha_right = alpha_dest of
    degree <= order, by direct multi-index addition; optionally only the
    pairs of two non-constant factors."""
    by_degree = {}
    for i, alpha in enumerate(space.alphas):
        by_degree.setdefault(sum(alpha), []).append(i)
    low = 1 if nonconstant else 0
    triples = []
    for da in range(low, space.order + 1):
        for db in range(low, space.order + 1 - da):
            for i in by_degree[da]:
                a = space.alphas[i]
                for j in by_degree[db]:
                    dest = tuple(x + y for x, y in zip(a, space.alphas[j]))
                    triples.append((i, j, space.index[dest]))
    return triples


def naive_mul(space, a, b):
    """The truncated product of two coefficient stacks, one jet at a time."""
    lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    a, b = np.broadcast_to(a, lead + a.shape[-1:]), np.broadcast_to(b, lead + b.shape[-1:])
    triples = naive_triples(space)
    out = np.zeros(lead + (space.ncoeff,))
    for idx in np.ndindex(*lead):
        for i, j, dest in triples:
            out[idx + (dest,)] += a[idx + (i,)] * b[idx + (j,)]
    return out


KERNEL_LEADS = [((), ()), ((3,), (3,)), ((2, 1), (1, 3))]


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("num_vars", [1, 2, 3, 4, 5, 6])
def test_mul_matches_naive_truncated_product(num_vars, order):
    rng = np.random.default_rng(10 * num_vars + order)
    space = jet_space(num_vars, order)
    for lead_a, lead_b in KERNEL_LEADS:
        a = rng.normal(size=lead_a + (space.ncoeff,))
        b = rng.normal(size=lead_b + (space.ncoeff,))
        got = space.mul(a, b)
        assert got.shape == np.broadcast_shapes(lead_a, lead_b) + (space.ncoeff,)
        np.testing.assert_allclose(got, naive_mul(space, a, b), rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("num_vars", [1, 2, 3, 4, 5, 6])
def test_matvec_matches_naive_truncated_product(num_vars, order):
    rng = np.random.default_rng(100 + 10 * num_vars + order)
    space = jet_space(num_vars, order)
    p, q, k = 2, 3, 2
    for lead_m, lead_v in KERNEL_LEADS:
        m = rng.normal(size=lead_m + (p, q, space.ncoeff))
        v = rng.normal(size=lead_v + (q, k, space.ncoeff))
        # sum over q of m[..., p, q] * v[..., q, k], as a (..., p, q, k) product
        want = naive_mul(space, m[..., :, :, None, :], v[..., None, :, :, :]).sum(axis=-3)
        got = space.matvec(m, v)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("dim", range(2, 11))
def test_order1_matvec_matches_naive_product_at_frame_sizes(dim):
    # The frame's square matrices of order-1 jets: dim = m + 1 for m chart
    # variables, the sizes the frame decompositions use.
    rng = np.random.default_rng(200 + dim)
    space = jet_space(dim - 1, 1)
    for lead_m, lead_v in KERNEL_LEADS:
        m = rng.normal(size=lead_m + (dim, dim, space.ncoeff))
        v = rng.normal(size=lead_v + (dim, 3, space.ncoeff))
        want = naive_mul(space, m[..., :, :, None, :], v[..., None, :, :, :]).sum(axis=-3)
        got = space.matvec(m, v)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


def assert_relative(got, want, rtol):
    assert got.shape == want.shape
    gap = float(np.max(np.abs(got - want), initial=0.0))
    assert gap <= rtol * float(np.max(np.abs(want))), gap


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("num_vars", [1, 3, 9, 17])
def test_affine_mul_matches_general_product(num_vars, order):
    # mul is the oracle: a vector of affine jets times one jet, at a single
    # point and on stacks, and b truncated to a prefix of the layout.
    rng = np.random.default_rng(300 + 10 * num_vars + order)
    space = jet_space(num_vars, order)
    for lead in [(), (4,), (2, 3)]:
        a = np.zeros(lead + (5, space.ncoeff))
        a[..., : num_vars + 1] = rng.normal(size=lead + (5, num_vars + 1))
        b = rng.normal(size=lead + (space.ncoeff,))
        want = space.mul(a, b[..., None, :])
        assert_relative(space.affine_mul(a, b), want, 1e-14)
        for degree in range(order):
            k = math.comb(num_vars + degree, degree)
            head = np.where(np.arange(space.ncoeff) < k, b, 0.0)
            want = space.mul(a, head[..., None, :])[..., :k]
            assert_relative(space.affine_mul(a, b[..., :k]), want, 1e-14)


@pytest.mark.parametrize(
    "num_vars, order", [(1, 1), (1, 3), (2, 2), (4, 3), (6, 3), (7, 2), (33, 3)]
)
def test_pair_tables_are_the_nonconstant_factor_pairs(num_vars, order):
    # 33 variables at order 3 is where a mixed-radix key (order + 1)**num_vars
    # no longer fits in int64.
    space = jet_space(num_vars, order)
    left, right, starts = space._mul_left, space._mul_right, space._mul_starts
    # The segments are the coefficients of degree >= 2, in layout order.
    assert len(starts) == space.ncoeff - num_vars - 1
    dest = num_vars + 1 + np.repeat(np.arange(len(starts)), np.diff(np.append(starts, len(left))))
    got = sorted(zip(left.tolist(), right.tolist(), dest.tolist()))
    assert got == sorted(naive_triples(space, nonconstant=True))


def test_derivs_are_truncated_partials():
    rng = np.random.default_rng(12)
    space = jet_space(3)
    a = rng.normal(size=(2, space.ncoeff))
    for order, k in ((0, 1), (1, 4), (2, 10)):
        got = space.derivs(a, order)
        assert got.shape == (2, 3, k)
        for i in range(3):
            np.testing.assert_array_equal(got[:, i], space.deriv(a, i)[:, :k])
    with pytest.raises(OrderExceeded):
        space.derivs(a, 3)
    with pytest.raises(OrderExceeded):
        jet_space(3, 1).partial(a[0, :4], (2, 0, 0))


@pytest.mark.parametrize("m", range(1, 10))
def test_second_derivs_gather_the_pairs_of_two_derivs(m):
    # One gather for d_i d_j, i <= j in np.triu_indices order, bit for bit
    # the two derivative steps it replaces, on a stack of random jets.
    rng = np.random.default_rng(40 + m)
    space = jet_space(m)
    a = rng.normal(size=(3, 2, space.ncoeff))
    iu, ju = np.triu_indices(m)
    got = space.second_derivs(a)
    assert got.shape == (3, 2, len(iu), m + 1)
    np.testing.assert_array_equal(got, space.derivs(space.derivs(a, 2), 1)[..., iu, ju, :])


@pytest.mark.parametrize("kernel", ["inv", "sqrt"])
@pytest.mark.parametrize("num_vars, order", [(1, 3), (3, 3), (9, 3), (5, 2)])
def test_inv_and_sqrt_of_a_stack_equal_each_row_alone(kernel, num_vars, order):
    # Their compose coefficients are products, which round alike for an
    # array and for one of its elements.
    rng = np.random.default_rng(7 * num_vars + order)
    space = jet_space(num_vars, order)
    a = rng.normal(size=(4, 5, space.ncoeff))
    a[..., 0] = rng.uniform(0.1, 30.0, size=a.shape[:-1])
    op = getattr(space, kernel)
    stack = op(a)
    for idx in np.ndindex(a.shape[:-1]):
        assert np.array_equal(stack[idx], op(a[idx])), idx
