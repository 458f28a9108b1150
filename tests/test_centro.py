"""Exchange symmetry: splits, predicates, block forms, half-size solves."""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrocirc import (
    EigenPair,
    NotCentroSkewError,
    NotCentroSymmetricError,
    SpecialTridiag,
    block_form,
    centro_split,
    circ_dense,
    circ_eigenpairs,
    even_odd_basis,
    even_odd_split,
    exchange_dense,
    is_centro_skew,
    is_centro_symmetric,
    pi_minus_pit_coeffs,
    r_dense,
    reflect_eigenpair,
    solve_centro_symmetric,
    solve_dense,
)
from centrocirc.dense import _unitary_defect


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_exchange_dense_4():
    expected = np.array(
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
        dtype=np.complex128,
    )
    np.testing.assert_array_equal(exchange_dense(4), expected)


def test_exchange_is_involution():
    for n in (1, 2, 5, 8):
        e = exchange_dense(n)
        np.testing.assert_array_equal(e @ e, np.eye(n))


def test_even_odd_split_parity():
    split = even_odd_split([1, 2, 3, 4])
    np.testing.assert_array_equal(split.even, [2.5, 2.5, 2.5, 2.5])
    np.testing.assert_array_equal(split.odd, [-1.5, -0.5, 0.5, 1.5])
    np.testing.assert_array_equal(split.even, split.even[::-1])
    np.testing.assert_array_equal(split.odd, -split.odd[::-1])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.complex_numbers(max_magnitude=1e8, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=30,
    )
)
def test_even_odd_split_recombines(xs):
    x = np.array(xs, dtype=np.complex128)
    split = even_odd_split(x)
    np.testing.assert_allclose(split.even + split.odd, x, atol=1e-7)
    np.testing.assert_array_equal(split.even, split.even[::-1])
    np.testing.assert_array_equal(split.odd, -split.odd[::-1])


def strided(x):
    # the same matrix as a non-contiguous view: x[::2, ::2] of a larger array
    big = np.full((2 * x.shape[0], 2 * x.shape[1]), 7 + 3j)
    big[::2, ::2] = x
    return big[::2, ::2]


def test_centro_split_recombines_and_classifies():
    rng = np.random.default_rng(55)
    x = complex_normal(rng, (6, 6))
    parts = centro_split(x)
    np.testing.assert_allclose(parts.sym + parts.skew, x, atol=1e-14)
    # the vectorization reads the logical row-major order of any layout, and
    # the transpose of a centro-symmetric (skew) matrix is one too
    for layout in (np.ascontiguousarray, np.asfortranarray, np.transpose, strided):
        assert is_centro_symmetric(layout(parts.sym))
        assert is_centro_skew(layout(parts.skew))
        assert not is_centro_symmetric(layout(parts.skew + np.eye(6)))
        assert not is_centro_skew(layout(parts.sym + exchange_dense(6)))
        split = centro_split(layout(x))
        np.testing.assert_array_equal(split.sym, layout(parts.sym))
        np.testing.assert_array_equal(split.skew, layout(parts.skew))


def test_centro_split_requires_square():
    with pytest.raises(ValueError, match="square"):
        centro_split(np.ones((2, 3)))
    with pytest.raises(ValueError, match="square"):
        centro_split(np.ones((4, 3, 2)))
    for predicate in (is_centro_symmetric, is_centro_skew):
        with pytest.raises(ValueError, match="square"):
            predicate(np.ones((3, 2)))


def test_known_matrices_classify():
    # R_n is centro-skew, the exchange and any circulant-plus-its-flip sym
    assert is_centro_skew(r_dense(SpecialTridiag(7)))
    assert is_centro_symmetric(exchange_dense(5))
    assert is_centro_symmetric(np.eye(4))
    c = circ_dense(pi_minus_pit_coeffs(6))
    assert is_centro_skew(c)


def test_even_odd_basis_shapes_and_orthogonality():
    for n in (1, 2, 5, 6, 11):
        basis = even_odd_basis(n)
        r = (n + 1) // 2
        assert basis.p_cols.shape == (n, r)
        assert basis.q_cols.shape == (n, n // 2)
        stacked = np.hstack([basis.p_cols, basis.q_cols])
        assert _unitary_defect(stacked) <= 1e-10 + 1e-10 * n
        # columns have the right parity
        for col in basis.p_cols.T:
            np.testing.assert_array_equal(col, col[::-1])
        for col in basis.q_cols.T:
            np.testing.assert_array_equal(col, -col[::-1])


def test_even_odd_basis_frozen_3():
    basis = even_odd_basis(3)
    s = np.sqrt(0.5)
    np.testing.assert_allclose(basis.p_cols, [[s, 0], [0, 1], [s, 0]], atol=1e-15)
    np.testing.assert_allclose(basis.q_cols, [[s], [0], [-s]], atol=1e-15)


def test_block_form_of_centro_symmetric_is_block_diagonal():
    rng = np.random.default_rng(77)
    for n in (4, 5, 9):
        basis = even_odd_basis(n)
        sym = centro_split(complex_normal(rng, (n, n))).sym
        b11, b12, b21, b22 = block_form(sym)
        assert np.linalg.norm(b12) <= 1e-12
        assert np.linalg.norm(b21) <= 1e-12
        # the blocks reassemble the matrix
        p, q = basis.p_cols, basis.q_cols
        rebuilt = p @ b11 @ p.conj().T + q @ b22 @ q.conj().T
        np.testing.assert_allclose(rebuilt, sym, atol=1e-12)


def test_block_form_of_centro_skew_is_block_antidiagonal():
    rng = np.random.default_rng(78)
    for n in (4, 7):
        skew = centro_split(complex_normal(rng, (n, n))).skew
        k11, k12, k21, k22 = block_form(skew)
        assert np.linalg.norm(k11) <= 1e-12
        assert np.linalg.norm(k22) <= 1e-12
        assert np.linalg.norm(k12) > 0.1  # generic draw keeps the couplings


def test_block_form_requires_square():
    with pytest.raises(ValueError, match="square"):
        block_form(np.ones((4, 5)))
    with pytest.raises(ValueError, match="square"):
        block_form(np.ones((3, 4, 5)))


def dense_blocks(x, basis):
    """The dense oracle P*XP, P*XQ, Q*XP, Q*XQ, stacks broadcast by matmul."""
    ph, qh = basis.p_cols.conj().T, basis.q_cols.conj().T
    p, q = basis.p_cols, basis.q_cols
    return ph @ x @ p, ph @ x @ q, qh @ x @ p, qh @ x @ q


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 3), (8, 8), (9, 9), (4, 7, 7)])
def test_block_form_matches_dense_basis_on_generic_input(shape):
    # negative control for the block metric: generic X has no zero block, so
    # a fold that pairs the wrong entries or scales them wrongly shows here
    rng = np.random.default_rng(sum(shape))
    basis = even_odd_basis(shape[-1])
    x = complex_normal(rng, shape)
    for block, oracle in zip(block_form(x), dense_blocks(x, basis)):
        assert block.shape == oracle.shape
        np.testing.assert_allclose(block, oracle, rtol=0, atol=1e-13)


def signed_zero_rich(rng, shape):
    # entries drawn from {+-0, +-1, +-0.5} in both parts: many mirror pairs
    # cancel exactly, so the sign of each zero shows which operation ran
    values = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -0.5])
    x = np.empty(shape, dtype=np.complex128)
    x.real = rng.choice(values, shape)
    x.imag = rng.choice(values, shape)
    return x


def reference_halves(x, odd, rows):
    # (x + flip x) / 2, or with odd (x - flip x) / 2, each real component
    # halved exactly; flip reverses the last axis, and with rows the rows
    # too, sliced explicitly as [..., ::-1, :]
    fx = x[..., ::-1, :][..., ::-1] if rows else x[..., ::-1]
    total = x - fx if odd else x + fx
    out = np.empty_like(total)
    out.real = total.real * 0.5
    out.imag = total.imag * 0.5
    return out


ROOT_HALF = 1.0 / np.sqrt(2.0)


def reference_fold(x, odd):
    # P* X, or with odd Q* X, by explicit [..., :half, :] row slicing; on
    # x[..., None] it folds the last axis of x, one-entry row by row
    half = x.shape[-2] // 2
    top, mirror = x[..., :half, :], x[..., ::-1, :][..., :half, :]
    if odd:
        return (top - mirror) * ROOT_HALF
    out = (top + mirror) * ROOT_HALF
    if x.shape[-2] % 2:
        out = np.concatenate([out, x[..., half:half + 1, :]], axis=-2)
    return out


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(n, n) for n in range(1, 10)] + [(4, 7, 7)])
def test_centro_kernels_equal_the_two_sided_reference_bit_for_bit(shape):
    # signed zeros included: the row fold must run the same elementwise
    # operations as an explicit two-sided fold, not merely agree to round-off
    rng = np.random.default_rng(400 + sum(shape))
    for x in (signed_zero_rich(rng, shape), complex_normal(rng, shape),
              np.asfortranarray(signed_zero_rich(rng, shape))):
        want = [reference_fold(reference_fold(x, row_odd)[..., None], col_odd)[..., 0]
                for row_odd in (False, True) for col_odd in (False, True)]
        for got, expected in zip(block_form(x), want, strict=True):
            assert_same_bits(got, expected)
        split = centro_split(x)
        assert_same_bits(split.sym, reference_halves(x, odd=False, rows=True))
        assert_same_bits(split.skew, reference_halves(x, odd=True, rows=True))
        split = even_odd_split(x)
        assert_same_bits(split.even, reference_halves(x, odd=False, rows=False))
        assert_same_bits(split.odd, reference_halves(x, odd=True, rows=False))


def test_halves_keep_the_sign_of_a_zero_component():
    # (-0 + 3j) / 2 as a complex division would give +0 + 1.5j
    split = even_odd_split([complex(-0.0, 1.0), complex(-0.0, 2.0)])
    assert np.signbit(split.even.real).all()
    np.testing.assert_array_equal(split.even, [1.5j, 1.5j])
    corner = complex(-0.0, 1.0)
    sym = centro_split([[corner, 0.0], [0.0, corner]]).sym
    assert np.signbit(sym.real.diagonal()).all()


def test_splits_stay_finite_where_the_sum_overflows():
    # x - Ex = 2e308 overflows, but the exact halves are finite
    x = np.array([1e308, -1e308], dtype=np.complex128)
    split = even_odd_split(x)
    np.testing.assert_array_equal(split.odd, x)
    np.testing.assert_array_equal(split.even, [0, 0])
    m = np.array([[1e308, -1e308], [1e308, -1e308]], dtype=np.complex128)
    parts = centro_split(m)
    np.testing.assert_array_equal(parts.skew, m)
    np.testing.assert_array_equal(parts.sym, np.zeros((2, 2)))


def test_centro_predicates_decide_an_overflowing_defect_without_warning():
    # X - E X E overflows: a defect of inf, decided without a warning (the
    # suite turns warnings into errors)
    m = [[1e308, -1e308], [1e308, -1e308]]
    assert not is_centro_symmetric(m)
    assert is_centro_skew(m)
    assert not is_centro_skew([[1e308, 1e308], [1e308, 1e308]])
    # |a| overflows but |a / 2| does not: the half that must vanish and the
    # bound are both measured on halves, so neither reads inf
    a = 1.5e308 + 1.5e308j
    for unstructured in ([[a, 0], [0, 0]], [[a, 1], [2, 3]]):
        assert not is_centro_symmetric(unstructured)
        assert not is_centro_skew(unstructured)
    assert is_centro_symmetric(np.diag([a, a]))
    assert is_centro_skew(np.diag([a, -a]))


def test_solve_centro_symmetric_identity_and_exchange():
    np.testing.assert_allclose(
        solve_centro_symmetric(np.eye(4), [1, 2, 3, 4]), [1, 2, 3, 4], atol=1e-12
    )
    np.testing.assert_allclose(
        solve_centro_symmetric(exchange_dense(4), [1, 2, 3, 4]),
        [4, 3, 2, 1],
        atol=1e-12,
    )


def test_solve_centro_symmetric_matches_full_lu():
    rng = np.random.default_rng(88)
    for n in (1, 2, 3, 6, 10):  # n = 1 leaves the odd half empty
        a = centro_split(complex_normal(rng, (n, n))).sym
        w = complex_normal(rng, n)
        z_half = solve_centro_symmetric(a, w)
        z_full = solve_dense(a, w)
        np.testing.assert_allclose(z_half, z_full, atol=1e-8)
        assert np.linalg.norm(a @ z_half - w) <= 1e-8 * (1 + np.linalg.norm(w))


def test_solve_centro_symmetric_rejects_unstructured():
    rng = np.random.default_rng(89)
    a = complex_normal(rng, (5, 5))  # generic, no exchange symmetry
    with pytest.raises(NotCentroSymmetricError):
        solve_centro_symmetric(a, np.ones(5))


def test_solve_centro_symmetric_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="incompatible shapes"):
        solve_centro_symmetric(np.eye(4), np.ones(3))


def test_reflect_eigenpair_negates_value_and_flips_vector():
    k = circ_dense(pi_minus_pit_coeffs(6))  # centro-skew
    for pair in circ_eigenpairs(pi_minus_pit_coeffs(6)):
        flipped = reflect_eigenpair(k, pair)
        assert flipped.value == pytest.approx(-pair.value)
        np.testing.assert_array_equal(flipped.vector, pair.vector[::-1])
        residual = np.linalg.norm(k @ flipped.vector - flipped.value * flipped.vector)
        assert residual <= 1e-10 + 1e-10 * np.linalg.norm(k)


def test_reflect_eigenpair_null_vector_of_r():
    n = 5
    k = r_dense(SpecialTridiag(n))
    ones = np.ones(n) / np.sqrt(n)
    flipped = reflect_eigenpair(k, EigenPair(value=0.0, vector=ones))
    assert flipped.value == 0.0
    np.testing.assert_array_equal(flipped.vector, ones)


def test_reflect_eigenpair_rejects_bad_inputs():
    with pytest.raises(NotCentroSkewError):
        reflect_eigenpair(np.eye(3), EigenPair(value=1.0, vector=np.ones(3)))
    k = r_dense(SpecialTridiag(4))
    with pytest.raises(ValueError):
        # not an eigenpair: residual far above tolerance
        reflect_eigenpair(k, EigenPair(value=5.0, vector=np.ones(4)))


def test_reflect_eigenpair_decides_where_norms_overflow_when_squared():
    # at scale 1e160 the residual, ||K|| and the bound all overflow when
    # squared; a wrong pair must still be rejected and the true one kept
    k = 1e160 * circ_dense(pi_minus_pit_coeffs(6))
    ones = np.ones(6) / np.sqrt(6)
    with pytest.raises(ValueError, match="exceeds tolerance"):
        reflect_eigenpair(k, EigenPair(value=5e160, vector=ones))
    flipped = reflect_eigenpair(k, EigenPair(value=0.0, vector=ones))
    assert flipped.value == 0.0
    np.testing.assert_array_equal(flipped.vector, ones)


STACKED_CENTRO_KERNELS = {
    "even_odd_split": (lambda x: astuple(even_odd_split(x)), 1),
    "centro_split": (lambda x: astuple(centro_split(x)), 2),
    "block_form": (block_form, 2),
}


@pytest.mark.parametrize("n", [1, 2, 5, 8])
@pytest.mark.parametrize("kernel", sorted(STACKED_CENTRO_KERNELS))
def test_stacked_centro_kernels_match_rows(kernel, n):
    # slicing kernels: a stack along the leading axes gives exactly the rows
    func, core = STACKED_CENTRO_KERNELS[kernel]
    rng = np.random.default_rng(300 + n)
    stack = complex_normal(rng, (2, 3) + (n,) * core)
    stacked = func(stack)
    for index in np.ndindex(2, 3):
        for part, row in zip(stacked, func(stack[index])):
            np.testing.assert_array_equal(part[index], row)
    stack[1, 2][(0,) * core] = np.nan
    with pytest.raises(ValueError):
        func(stack)
