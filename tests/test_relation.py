"""The near-Toeplitz operator R_n: decomposition, defects, sign pattern,
nilpotent scaling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrocirc import (
    ComplexEntriesError,
    SpecialTridiag,
    circ_dense,
    even_odd_split,
    eta_minus_etat_coeffs,
    has_sign_pattern,
    lower_shift_dense,
    nilpotent_realization,
    nilpotent_scaling,
    pi_minus_pit_coeffs,
    r_apply,
    r_apply_via_relation,
    r_dense,
    rank_one_defects,
    restriction_spectra,
    scirc_dense,
    sign_pattern_of,
    verify_nilpotent,
)
from centrocirc.relation import _apply_defects

R5 = np.array(
    [
        [-1, 1, 0, 0, 0],
        [-1, 0, 1, 0, 0],
        [0, -1, 0, 1, 0],
        [0, 0, -1, 0, 1],
        [0, 0, 0, -1, 1],
    ],
    dtype=np.complex128,
)


def test_r_dense_5_frozen():
    np.testing.assert_array_equal(r_dense(SpecialTridiag(5)), R5)


def test_r_dense_2_frozen():
    np.testing.assert_array_equal(
        r_dense(SpecialTridiag(2)), [[-1, 1], [-1, 1]]
    )


def test_r_rejects_size_one():
    with pytest.raises(ValueError):
        SpecialTridiag(1)


def test_lower_shift_dense_frozen():
    expected = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    np.testing.assert_array_equal(lower_shift_dense(3), expected)


def test_r_from_shift_identity():
    # R = Z^T - Z - e1 e1^T + en en^T
    for n in (2, 3, 6, 11):
        z = lower_shift_dense(n)
        corner = np.zeros((n, n))
        corner[0, 0] = -1.0
        corner[n - 1, n - 1] = 1.0
        np.testing.assert_array_equal(r_dense(SpecialTridiag(n)), z.T - z + corner)


def test_r_apply_known_vectors():
    r = SpecialTridiag(5)
    np.testing.assert_array_equal(r_apply(r, [1, 2, 3, 2, 1]), [1, 2, 0, -2, -1])
    np.testing.assert_array_equal(r_apply(r, [1, 2, 0, -2, -1]), [1, -1, -4, -1, 1])


def test_r_kills_constants():
    for n in (2, 5, 12):
        np.testing.assert_array_equal(r_apply(SpecialTridiag(n), np.ones(n)), np.zeros(n))


def test_r_apply_matches_dense():
    rng = np.random.default_rng(91)
    for n in (2, 3, 4, 9, 17):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(
            r_apply(SpecialTridiag(n), x), r_dense(SpecialTridiag(n)) @ x, atol=1e-13
        )


@pytest.mark.parametrize("n", [2, 3, 8, 17])
@pytest.mark.parametrize("func", [r_apply, r_apply_via_relation],
                         ids=lambda func: func.__name__)
def test_stacked_r_kernels_match_rows(func, n):
    # the stencil is exact row by row; the FFT path agrees to round-off
    r = SpecialTridiag(n)
    rng = np.random.default_rng(400 + n)
    stack = rng.standard_normal((2, 3, n)) + 1j * rng.standard_normal((2, 3, n))
    rows = [[func(r, row) for row in block] for block in stack]
    if func is r_apply:
        np.testing.assert_array_equal(func(r, stack), rows)
    else:
        np.testing.assert_allclose(func(r, stack), rows, rtol=0, atol=1e-13)
    with pytest.raises(ValueError):
        func(r, np.ones((3, n + 1)))
    stack[1, 0, n - 1] = np.inf
    with pytest.raises(ValueError):
        func(r, stack)


def test_restriction_coeff_pictures_5():
    even = circ_dense(pi_minus_pit_coeffs(5))
    odd = scirc_dense(eta_minus_etat_coeffs(5))
    np.testing.assert_array_equal(
        even,
        [
            [0, 1, 0, 0, -1],
            [-1, 0, 1, 0, 0],
            [0, -1, 0, 1, 0],
            [0, 0, -1, 0, 1],
            [1, 0, 0, -1, 0],
        ],
    )
    np.testing.assert_array_equal(
        odd,
        [
            [0, 1, 0, 0, 1],
            [-1, 0, 1, 0, 0],
            [0, -1, 0, 1, 0],
            [0, 0, -1, 0, 1],
            [-1, 0, 0, -1, 0],
        ],
    )


def test_restriction_coeffs_degenerate_at_2():
    # at n = 2 the two shifts coincide: pi - pi^T vanishes, eta - eta^T doubles
    np.testing.assert_array_equal(pi_minus_pit_coeffs(2).coeffs, [0, 0])
    np.testing.assert_array_equal(eta_minus_etat_coeffs(2).coeffs, [0, 2])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=24).flatmap(
        lambda n: st.lists(
            st.complex_numbers(
                max_magnitude=1e4, allow_nan=False, allow_infinity=False
            ),
            min_size=n,
            max_size=n,
        )
    )
)
def test_relation_paths_agree(xs):
    x = np.array(xs, dtype=np.complex128)
    r = SpecialTridiag(len(xs))
    direct = r_apply(r, x)
    via = r_apply_via_relation(r, x)
    assert np.linalg.norm(direct - via) <= 1e-10 * len(xs) * max(
        1.0, np.linalg.norm(x)
    )


def test_rank_one_defects_frozen_4():
    d_plus, d_minus = rank_one_defects(4)
    np.testing.assert_array_equal(
        d_plus,
        [[-1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [-1, 0, 0, 1]],
    )
    np.testing.assert_array_equal(
        d_minus,
        [[-1, 0, 0, -1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]],
    )


def test_defects_annihilate_parity_parts_exactly():
    rng = np.random.default_rng(92)
    for n in (2, 3, 8, 16):
        d_plus, d_minus = rank_one_defects(n)
        # exact on integer vectors: no rounding anywhere in the product
        x = rng.integers(-100, 100, n).astype(np.complex128)
        split = even_odd_split(2 * x)  # doubling keeps the halves integral
        np.testing.assert_array_equal(d_plus @ split.even, np.zeros(n))
        np.testing.assert_array_equal(d_minus @ split.odd, np.zeros(n))


def test_rank_one_application_matches_dense_defects_on_broken_splits():
    # halves with no parity, so that neither defect annihilates its half
    rng = np.random.default_rng(93)
    for n in range(2, 65):
        draws = rng.standard_normal((4, 5, n))
        even, odd = draws[0] + 1j * draws[1], draws[2] + 1j * draws[3]
        d_plus, d_minus = rank_one_defects(n)
        applied = _apply_defects(even, odd)
        for got, dense in zip(applied, (even @ d_plus.T, odd @ d_minus.T)):
            np.testing.assert_allclose(got, dense, rtol=1e-15, atol=0)
            np.testing.assert_allclose(np.linalg.norm(got, axis=-1),
                                       np.linalg.norm(dense, axis=-1), rtol=1e-15, atol=0)


def test_restriction_spectra_frozen_4():
    even, odd = restriction_spectra(4)
    np.testing.assert_allclose(even, [0, 2j, 0, -2j], atol=1e-14)
    s = np.sqrt(2.0)
    np.testing.assert_allclose(odd, [s * 1j, s * 1j, -s * 1j, -s * 1j], atol=1e-14)


@pytest.mark.parametrize("n", [2, 3, 256, 1024])
def test_restriction_spectra_match_closed_form(n):
    even, odd = restriction_spectra(n)
    k = np.arange(n)
    assert np.max(np.abs(even - 2j * np.sin(2 * np.pi * k / n))) <= 1e-14
    assert np.max(np.abs(odd - 2j * np.sin((2 * k + 1) * np.pi / n))) <= 1e-14


def test_restriction_spectra_match_dense_eigenvalues():
    for n in (3, 5, 8):
        even, odd = restriction_spectra(n)
        even_dense = np.linalg.eigvals(circ_dense(pi_minus_pit_coeffs(n)))
        odd_dense = np.linalg.eigvals(scirc_dense(eta_minus_etat_coeffs(n)))
        # all values are purely imaginary; compare as sorted reals
        np.testing.assert_allclose(
            np.sort(even.imag), np.sort(even_dense.imag), atol=1e-9
        )
        np.testing.assert_allclose(np.sort(odd.imag), np.sort(odd_dense.imag), atol=1e-9)
        assert np.max(np.abs(even.real)) <= 1e-12
        assert np.max(np.abs(odd.real)) <= 1e-12


def test_sign_pattern_of_r5():
    pattern = sign_pattern_of(r_dense(SpecialTridiag(5)))
    np.testing.assert_array_equal(pattern.entries, R5.real.astype(np.int64))


def test_sign_pattern_dead_zone_and_complex_rejection():
    pattern = sign_pattern_of([[1e-12, -3.0], [2.0, 0.0]])
    np.testing.assert_array_equal(pattern.entries, [[0, -1], [1, 0]])
    with pytest.raises(ComplexEntriesError):
        sign_pattern_of([[1j, 0], [0, 1]])


def test_sign_pattern_validation():
    from centrocirc import SignPattern

    signs = [[1, 0], [0, -1]]
    np.testing.assert_array_equal(SignPattern(signs).entries, signs)
    with pytest.raises(ValueError):
        SignPattern(np.array([[2, 0], [0, 1]]))
    with pytest.raises(ValueError):
        SignPattern(np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        SignPattern(np.zeros(4, dtype=np.int64))


def test_square_checks_reject_nonsquare_input():
    with pytest.raises(ValueError, match="square"):
        sign_pattern_of(np.ones((2, 3)))
    with pytest.raises(ValueError, match="square"):
        verify_nilpotent(np.zeros((3, 2)))


def test_nilpotent_scaling_frozen_2():
    s = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(nilpotent_scaling(2), [s, s], atol=1e-15)


def test_nilpotent_scaling_shape():
    f = nilpotent_scaling(9)
    assert f.shape == (9,)
    assert np.all(f > 0)
    # angles are symmetric about pi/2, so the ends peak and the middle dips
    assert f[0] == pytest.approx(f[-1])
    assert f[4] == pytest.approx(0.5)  # 1 / (2 sin(pi/2))
    assert np.argmin(f) == 4


def test_nilpotent_realization_squares_to_zero_at_2():
    a = nilpotent_realization(2)
    assert np.linalg.norm(a @ a) <= 1e-14


@pytest.mark.parametrize("n", range(2, 13))
def test_nilpotent_realization_verifies(n):
    assert verify_nilpotent(nilpotent_realization(n))


def test_verify_nilpotent_rejects_identity():
    assert not verify_nilpotent(np.eye(4))


def test_scaling_preserves_sign_pattern():
    for n in (2, 5, 20, 32):
        pattern = sign_pattern_of(r_dense(SpecialTridiag(n)))
        assert has_sign_pattern(nilpotent_realization(n), pattern)
