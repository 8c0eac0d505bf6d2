"""Half-swap involution and quadric block matrices."""

import json
import math

import numpy as np
import pytest

from parageom import ShapeError, jet_space
from parageom.paracomplex import (
    QuadricSpec,
    anticommutator_residual,
    apply_J,
    quadric_residual,
    random_quadric_spec,
)


def fixed_n1_spec():
    return QuadricSpec(n=1, P=np.eye(2), R_skew=np.array([[0.0, 1.0], [-1.0, 0.0]]))


# ----------------------------------------------------------------------
# apply_J


def test_half_swap_four_vector():
    np.testing.assert_array_equal(apply_J(np.array([1.0, 2.0, 3.0, 4.0])),
                                  [3.0, 4.0, 1.0, 2.0])


def test_half_swap_pair():
    np.testing.assert_array_equal(apply_J(np.array([5.0, -2.0])), [-2.0, 5.0])


def test_half_swap_is_involution():
    rng = np.random.default_rng(0)
    for dim in (2, 4, 6, 10):
        v = rng.normal(size=dim)
        np.testing.assert_array_equal(apply_J(apply_J(v)), v)


def test_half_swap_rejects_odd_length():
    with pytest.raises(ShapeError):
        apply_J(np.zeros(3))


def test_half_swap_self_adjoint():
    rng = np.random.default_rng(1)
    for dim in (2, 4, 8):
        x, y = rng.normal(size=dim), rng.normal(size=dim)
        assert apply_J(x) @ y == pytest.approx(x @ apply_J(y), abs=1e-14)


# ----------------------------------------------------------------------
# anticommutator residual


def test_block_spec_anticommutes():
    for n, seed in [(0, 1), (1, 2), (2, 3)]:
        spec = random_quadric_spec(n, seed)
        assert anticommutator_residual(spec.A) <= 1e-15


def test_identity_matrix_residual_is_two():
    # J I + I J = 2J whose largest entry is 2.
    assert anticommutator_residual(np.eye(2)) == pytest.approx(2.0)


def test_hyperbola_matrix_anticommutes():
    assert anticommutator_residual(np.diag([1.0, -1.0])) == 0.0


# ----------------------------------------------------------------------
# random specs


def test_n0_spec_is_forced_diagonal():
    spec = random_quadric_spec(0, 5)
    assert spec.R_skew.shape == (1, 1)
    assert spec.R_skew[0, 0] == 0.0
    p = spec.P[0, 0]
    np.testing.assert_allclose(spec.A, [[p, 0.0], [0.0, -p]])
    assert p * p > 1e-6


def test_fixed_n1_spec_determinant():
    # Block determinant by hand: A = [[I, J2], [-J2, -I]] has det 4.
    spec = fixed_n1_spec()
    assert np.linalg.det(spec.A) == pytest.approx(4.0)


def test_same_seed_same_spec():
    a = random_quadric_spec(2, 123)
    b = random_quadric_spec(2, 123)
    np.testing.assert_array_equal(a.A, b.A)


def test_spec_symmetry_is_structural():
    spec = random_quadric_spec(3, 9)
    np.testing.assert_array_equal(spec.P, spec.P.T)
    np.testing.assert_array_equal(spec.R_skew, -spec.R_skew.T)
    np.testing.assert_array_equal(spec.A, spec.A.T)
    assert abs(np.linalg.det(spec.A)) > 1e-6


def test_spec_serialization_round_trip():
    spec = random_quadric_spec(2, 17)
    d = json.loads(json.dumps(spec.to_dict()))
    assert d["n"] == 2
    np.testing.assert_array_equal(d["P"], spec.P)
    np.testing.assert_array_equal(d["R_skew"], spec.R_skew)
    back = QuadricSpec(n=d["n"], P=np.asarray(d["P"]), R_skew=np.asarray(d["R_skew"]))
    np.testing.assert_array_equal(spec.A, back.A)


def test_singular_spec_rejected():
    with pytest.raises(ShapeError):
        QuadricSpec(n=0, P=np.array([[0.0]]), R_skew=np.array([[0.0]]))
    with pytest.raises(ShapeError):
        # A 2x2 P with a repeated row makes det A = 0 for n = 1, R = 0.
        QuadricSpec(n=1, P=np.ones((2, 2)), R_skew=np.zeros((2, 2)))


# ----------------------------------------------------------------------
# quadric residual


def test_hyperbola_point_on_quadric():
    spec = QuadricSpec(n=0, P=np.array([[1.0]]), R_skew=np.array([[0.0]]))
    x = np.array([math.cosh(1.0), math.sinh(1.0)])
    assert abs(quadric_residual(spec, x)) <= 1e-15


def test_fixed_n1_base_point():
    assert quadric_residual(fixed_n1_spec(), np.array([1.0, 0.0, 0.0, 0.0])) == 0.0


def test_origin_residual_is_minus_one():
    spec = random_quadric_spec(1, 4)
    assert quadric_residual(spec, np.zeros(4)) == -1.0


def test_residual_shape_check():
    with pytest.raises(ShapeError):
        quadric_residual(fixed_n1_spec(), np.zeros(6))


def test_quadric_gradient_is_2Ax_via_jets():
    # Differentiate q(x0 + sum u_i e_i) in jets; first partials must be 2 A x0.
    rng = np.random.default_rng(21)
    spec = random_quadric_spec(1, 33)
    dim = spec.ambient_dim
    space = jet_space(dim)
    x0 = rng.normal(size=dim)
    seeds = space.seeds(x0)
    ax = np.einsum("rs,sc->rc", spec.A, seeds)
    q = space.mul(seeds, ax).sum(axis=0)
    np.testing.assert_allclose(space.grad(q), 2.0 * spec.A @ x0, atol=1e-12)
