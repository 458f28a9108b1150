"""Dense-core helpers: coercion and LU solves."""

import numpy as np
import pytest

from centrocirc import (
    SingularMatrixError,
    SpecialTridiag,
    basic_circulant,
    basic_skew_circulant,
    eta_minus_etat_coeffs,
    even_odd_basis,
    exchange_dense,
    fourier_star_dense,
    lower_shift_dense,
    make_fourier_pack,
    nilpotent_realization,
    nilpotent_scaling,
    pi_minus_pit_coeffs,
    rank_one_defects,
    restriction_spectra,
    sigma_powers,
    solve_dense,
)
from centrocirc.dense import as_matrix, as_vector


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


@pytest.mark.parametrize("n", range(2, 65))
def test_solve_dense_raises_on_rank_deficient_products(n):
    # u @ v has rank n - 1, but its LU pivots are round-off, not exact zeros
    rng = np.random.default_rng(n)
    u = rng.standard_normal((n, n - 1)) + 1j * rng.standard_normal((n, n - 1))
    v = rng.standard_normal((n - 1, n)) + 1j * rng.standard_normal((n - 1, n))
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    with pytest.raises(SingularMatrixError):
        solve_dense(u @ v, w)


def test_solve_dense_raises_on_tiny_scale_without_warning():
    # z = 1e300 w: its norm overflows when squared, which must neither warn
    # (tier-1 turns RuntimeWarnings into errors) nor pass
    with pytest.raises(SingularMatrixError):
        solve_dense(1e-300 * np.eye(4), np.ones(4))


def test_solve_dense_solves_large_scale():
    z = solve_dense(1e8 * np.eye(4), np.ones(4))
    np.testing.assert_allclose(z, 1e-8 * np.ones(4), rtol=1e-12)
    # ||w|| overflows when squared: no warning, and the solve stands
    w = np.full(4, 1e200)
    np.testing.assert_array_equal(solve_dense(np.eye(4), w), w)
    # ||A||_F overflows and ||z|| underflows when squared: the norms rescale,
    # so this perfectly conditioned A solves, with no warning
    z = solve_dense(1e200 * np.eye(2), np.ones(2))
    np.testing.assert_allclose(z, np.full(2, 1e-200), rtol=1e-15)


def test_solve_dense_zero_right_hand_side():
    # z = 0 solves A z = 0 for every A: only an exactly zero pivot raises
    zero = np.zeros(4)
    np.testing.assert_array_equal(solve_dense(1e-300 * np.eye(4), zero), zero)
    with pytest.raises(SingularMatrixError):
        solve_dense(np.zeros((4, 4)), zero)


def test_solve_dense_shape_mismatch():
    with pytest.raises(ValueError):
        solve_dense(np.eye(3), np.ones(4))


# every public function that takes a size, with the least size it accepts
SIZE_FUNCTIONS = {
    exchange_dense: 1,
    even_odd_basis: 1,
    sigma_powers: 1,
    fourier_star_dense: 1,
    make_fourier_pack: 1,
    lower_shift_dense: 1,
    SpecialTridiag: 2,
    pi_minus_pit_coeffs: 2,
    eta_minus_etat_coeffs: 2,
    rank_one_defects: 2,
    nilpotent_scaling: 2,
    nilpotent_realization: 2,
    restriction_spectra: 2,
    basic_circulant: 2,
    basic_skew_circulant: 2,
}


@pytest.mark.parametrize("func", SIZE_FUNCTIONS, ids=lambda func: func.__name__)
def test_sizes_must_be_integers(func):
    least = SIZE_FUNCTIONS[func]
    for size in (2.5, 4.0, np.float64(3.0), "4"):
        with pytest.raises(TypeError):
            func(size)
    with pytest.raises(ValueError, match=f"size must be >= {least}"):
        func(least - 1)
    # numpy integers are sizes too
    func(np.int64(least + 2))
