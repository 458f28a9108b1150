"""Dense-core helpers: coercion, norms, powers, unitarity, LU solves."""

import numpy as np
import pytest

from centrocirc import (
    DEFAULT_TOL,
    SingularMatrixError,
    Tolerance,
    frobenius_norm,
    is_unitary,
    matrix_power,
    solve_dense,
)
from centrocirc.dense import as_matrix, as_vector


def test_tolerance_rejects_bad_values():
    with pytest.raises(ValueError):
        Tolerance(abs_eps=-1.0, rel_eps=1e-10)
    with pytest.raises(ValueError):
        Tolerance(abs_eps=1e-10, rel_eps=float("nan"))


def test_default_tolerance_values():
    assert DEFAULT_TOL.abs_eps == 1e-10
    assert DEFAULT_TOL.rel_eps == 1e-10


def test_as_vector_coerces_to_complex():
    v = as_vector([1, 2, 3])
    assert v.dtype == np.complex128
    np.testing.assert_array_equal(v, np.array([1, 2, 3], dtype=np.complex128))


def test_as_vector_rejects_matrix_and_nonfinite():
    with pytest.raises(ValueError):
        as_vector([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        as_vector([1.0, float("inf")])
    with pytest.raises(ValueError):
        as_vector([1.0, float("nan")])


def test_as_matrix_rejects_vector_and_nonfinite():
    with pytest.raises(ValueError):
        as_matrix([1, 2, 3])
    with pytest.raises(ValueError):
        as_matrix([[1.0, float("nan")], [0.0, 1.0]])


def test_frobenius_norm_known_value():
    # sqrt(1 + 4 + 4) = 3 for ((1, 2), (2i, 0))
    assert frobenius_norm([[1, 2], [2j, 0]]) == pytest.approx(3.0)


def test_matrix_power_identity_and_shift():
    a = np.array([[0, 1], [0, 0]], dtype=np.complex128)
    np.testing.assert_array_equal(matrix_power(a, 0), np.eye(2))
    np.testing.assert_array_equal(matrix_power(a, 1), a)
    np.testing.assert_array_equal(matrix_power(a, 2), np.zeros((2, 2)))


def test_matrix_power_rejects_negative_exponent():
    with pytest.raises(ValueError):
        matrix_power(np.eye(2), -1)


def test_is_unitary():
    phase = np.exp(0.3j)
    rot = phase * np.array([[0, 1], [-1, 0]], dtype=np.complex128)
    assert is_unitary(rot)
    assert not is_unitary(2 * np.eye(3))
    assert not is_unitary(np.array([[1, 1], [0, 1]], dtype=np.complex128))


def test_solve_dense_round_trip():
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    w = a @ z
    np.testing.assert_allclose(solve_dense(a, w), z, atol=1e-10)


def test_solve_dense_exact_small_system():
    # ((2, 0), (0, 4)) z = (2, 8) has z = (1, 2)
    z = solve_dense([[2, 0], [0, 4]], [2, 8])
    np.testing.assert_array_equal(z, [1, 2])


def test_solve_dense_raises_on_singular():
    with pytest.raises(SingularMatrixError):
        solve_dense([[1, 2], [2, 4]], [1, 1])
    with pytest.raises(SingularMatrixError):
        solve_dense(np.zeros((3, 3)), np.ones(3))


def test_solve_dense_pivot_floor_scales_with_matrix():
    # a tiny but well-conditioned matrix must still solve
    a = 1e-8 * np.eye(4)
    w = np.ones(4)
    np.testing.assert_allclose(solve_dense(a, w), 1e8 * np.ones(4), rtol=1e-12)


def test_solve_dense_shape_mismatch():
    with pytest.raises(ValueError):
        solve_dense(np.eye(3), np.ones(4))
