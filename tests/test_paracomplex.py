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
        assert np.abs(anticommutator_residual(spec.A)).max() <= 1e-15


def test_identity_matrix_residual_is_two():
    # J I + I J = 2J whose largest entry is 2.
    r = anticommutator_residual(np.eye(2))
    np.testing.assert_array_equal(r, 2.0 * np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.abs(r).max() == pytest.approx(2.0)


def test_hyperbola_matrix_anticommutes():
    assert np.abs(anticommutator_residual(np.diag([1.0, -1.0]))).max() == 0.0


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


def test_singularity_test_does_not_tighten_with_size():
    # cond(A) = 3.3 at every n; a floor on det(A / max|A|) = 0.3^(2n) rejected
    # this spec at n = 16 and accepted it at n = 4.
    for n in (4, 16):
        spec = QuadricSpec(n=n, P=np.diag([1.0] + [0.3] * n), R_skew=np.zeros((n + 1, n + 1)))
        assert np.linalg.cond(spec.A) < 3.4, n
    with pytest.raises(ShapeError):
        QuadricSpec(n=16, P=np.diag([1.0] + [0.3] * 15 + [0.0]), R_skew=np.zeros((17, 17)))
    # A NaN entry is an input error, not a failed SVD.
    with pytest.raises(ShapeError, match="finite"):
        QuadricSpec(n=1, P=np.array([[math.nan, 0.0], [0.0, 1.0]]), R_skew=np.zeros((2, 2)))


def test_huge_spec_constructs():
    # The singularity test is relative to max|A|, so no power of it overflows.
    spec = QuadricSpec(n=1, P=np.diag([1e200, -1e200]), R_skew=np.zeros((2, 2)))
    assert np.max(np.abs(spec.A)) == 1e200
    with pytest.raises(ShapeError):
        QuadricSpec(n=1, P=1e200 * np.ones((2, 2)), R_skew=np.zeros((2, 2)))


# ----------------------------------------------------------------------
# quadric residual


def test_hyperbola_point_on_quadric():
    spec = QuadricSpec(n=0, P=np.array([[1.0]]), R_skew=np.array([[0.0]]))
    x = np.array([math.cosh(1.0), math.sinh(1.0)])
    assert abs(x @ spec.A @ x - 1.0) <= 1e-15


def test_fixed_n1_base_point():
    x = np.array([1.0, 0.0, 0.0, 0.0])
    assert x @ fixed_n1_spec().A @ x - 1.0 == 0.0


def test_origin_residual_is_minus_one():
    spec = random_quadric_spec(1, 4)
    x = np.zeros(4)
    assert x @ spec.A @ x - 1.0 == -1.0


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
    np.testing.assert_allclose(q[1 : dim + 1], 2.0 * spec.A @ x0, atol=1e-12)
