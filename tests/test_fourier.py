"""Transform matrices and their fast applications.

The oracle throughout is the naive O(n^2) summation; the fft-backed
routines must agree with it and with the explicit dense matrices.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrocirc import (
    Circulant,
    SkewCirculant,
    circ_matvec,
    fourier_star_dense,
    make_fourier_pack,
    scirc_matvec,
    sigma_powers,
)
from centrocirc.dense import _unitary_defect
from centrocirc.fourier import _omega_powers


def dft(x, inverse=False):
    # the transform the circulant products apply: F, or F* with inverse, both
    # with the unitary 1/sqrt(n) along the last axis
    return np.fft.ifft(x, norm="ortho") if inverse else np.fft.fft(x, norm="ortho")


def naive_f_star(n):
    # F*(j, k) = omega^(jk) / sqrt(n), summed term by term
    omega = np.exp(2j * np.pi / n)
    out = np.empty((n, n), dtype=np.complex128)
    for j in range(n):
        for k in range(n):
            out[j, k] = omega ** (j * k)
    return out / np.sqrt(n)


def test_omega_powers_cycle():
    assert _omega_powers(4)[1] == pytest.approx(1j)
    assert _omega_powers(2)[1] == pytest.approx(-1.0)
    w = _omega_powers(6)
    assert w[0] == 1.0
    # conj(omega^k) = omega^(n-k)
    np.testing.assert_allclose(w.conj(), np.roll(w[::-1], 1), atol=1e-15)
    np.testing.assert_allclose(w ** 6, np.ones(6), atol=1e-14)


def test_sigma_powers_square_to_omega_powers():
    assert sigma_powers(4)[1] == pytest.approx(np.exp(1j * np.pi / 4))
    assert sigma_powers(2)[1] == pytest.approx(1j)
    n = 8
    np.testing.assert_allclose(sigma_powers(n) ** 2, _omega_powers(n), atol=1e-14)
    # sigma^n = -1: the defining property of the half-angle root
    assert sigma_powers(n)[1] ** n == pytest.approx(-1.0)


def test_fourier_star_dense_n4_exact_pattern():
    f = fourier_star_dense(4)
    expected = 0.5 * np.array(
        [
            [1, 1, 1, 1],
            [1, 1j, -1, -1j],
            [1, -1, 1, -1],
            [1, -1j, -1, 1j],
        ],
        dtype=np.complex128,
    )
    np.testing.assert_allclose(f, expected, atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 32, 64])
def test_fourier_star_matches_naive(n):
    np.testing.assert_allclose(fourier_star_dense(n), naive_f_star(n), atol=1e-12)


@pytest.mark.parametrize("n", range(1, 65))
def test_transform_matrices_unitary(n):
    pack = make_fourier_pack(n)
    for u in (pack.f_star, pack.h_star):
        assert _unitary_defect(u) <= 1e-10 + 1e-10 * n


def test_h_star_is_twisted_f_star():
    n = 12
    pack = make_fourier_pack(n)
    np.testing.assert_allclose(
        pack.h_star, sigma_powers(n)[:, None] * pack.f_star, atol=1e-14
    )


def test_dft_apply_matches_dense():
    # the numpy convention circ_matvec relies on, against F* and F = (F*)^H
    rng = np.random.default_rng(2024)
    for n in (1, 2, 5, 16, 33):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f_star = fourier_star_dense(n)
        # forward transform is F = (F*)^H
        np.testing.assert_allclose(dft(x), f_star.conj().T @ x, atol=1e-12)
        np.testing.assert_allclose(dft(x, inverse=True), f_star @ x, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=40,
    )
)
def test_transforms_round_trip(xs):
    x = np.array(xs, dtype=np.complex128)
    scale = max(1.0, np.linalg.norm(x))
    assert np.linalg.norm(dft(dft(x), inverse=True) - x) <= 1e-9 * scale


def test_transforms_preserve_norm():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(17) + 1j * rng.standard_normal(17)
    assert np.linalg.norm(dft(x)) == pytest.approx(np.linalg.norm(x))


@pytest.mark.parametrize("x", [[np.nan, 1.0], [1.0, np.inf], [[1.0], [-np.inf]], [], [[]]])
def test_dft_apply_rejects_nonfinite_and_empty_input(x):
    # the DFT is applied only inside the two products, which check x first
    n = max(1, np.shape(x)[-1])
    for product, matrix in ((circ_matvec, Circulant), (scirc_matvec, SkewCirculant)):
        with pytest.raises(ValueError, match="non-finite|nonempty"):
            product(matrix(np.ones(n)), x)


def test_sizes_below_one_rejected():
    with pytest.raises(ValueError):
        _omega_powers(0)
    with pytest.raises(ValueError):
        sigma_powers(0)
    with pytest.raises(ValueError):
        fourier_star_dense(0)


@pytest.mark.parametrize("n", list(range(1, 71)) + [97, 1024])
def test_fourier_star_dense_gather_is_bitwise_the_exp_formula(n):
    # the gather from _omega_powers(n) must give exactly the n**2 exps
    j = np.arange(n)
    expected = np.exp(2j * np.pi * (np.outer(j, j) % n) / n) / np.sqrt(n)
    assert np.array_equal(fourier_star_dense(n), expected)
