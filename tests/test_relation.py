"""The near-Toeplitz operator R_n: decomposition, defects, sign pattern,
nilpotent scaling."""

import itertools
import tracemalloc

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
from centrocirc import relation

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
    # the stencil is exact row by row; the split-and-shift route agrees to
    # round-off
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


@pytest.mark.parametrize("n", [2, 3, 8, 17, 2 ** 18])
def test_r_apply_via_relation_calls_no_fft(monkeypatch, n):
    def forbidden(*args, **kwargs):
        raise AssertionError("numpy.fft called")

    for name in np.fft.__all__:
        monkeypatch.setattr(np.fft, name, forbidden)
    r = SpecialTridiag(n)
    rng = np.random.default_rng(n)
    x = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    np.testing.assert_allclose(r_apply_via_relation(r, x), r_apply(r, x), rtol=0, atol=1e-13)


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


def test_relation_path_stays_finite_where_the_split_sum_overflows():
    # x - Ex overflows at the ends, though the odd half is x itself; only the
    # middle entry, -2e308, is out of range, on both paths.  The odd half
    # takes the halved-input fallback, and both keep the full-length bits
    r = SpecialTridiag(3)
    x = [1e308, 0, -1e308]
    with np.errstate(over="ignore"):
        direct = r_apply(r, x)
        via = r_apply_via_relation(r, x)
        relation_reference = _relation_reference(x)
        stencil_reference = _stencil_reference(x)
    np.testing.assert_array_equal(direct, [-1e308, -np.inf, -1e308])
    assert via.tobytes() == direct.tobytes() == relation_reference.tobytes()
    assert direct.tobytes() == stencil_reference.tobytes()


def _stencil_reference(x):
    # the stencil with its interior formed as a temporary, then copied
    x = np.asarray(x, dtype=np.complex128)
    y = np.empty(x.shape, dtype=np.complex128)
    y[..., 0] = x[..., 1] - x[..., 0]
    y[..., 1:-1] = x[..., 2:] - x[..., :-2]
    y[..., -1] = x[..., -1] - x[..., -2]
    return y


def _shift_difference_reference(y, wrap):
    # (g - g^T) y at full length for the generator g of the given wrap
    out = np.empty_like(y)
    out[..., 1:-1] = y[..., 2:] - y[..., :-2]
    out[..., 0] = y[..., 1] - wrap * y[..., -1]
    out[..., -1] = wrap * y[..., 0] - y[..., -2]
    return out


def _relation_reference(x):
    # both restrictions applied at full length to both full-length halves
    split = even_odd_split(x)
    return (_shift_difference_reference(split.even, 1.0)
            + _shift_difference_reference(split.odd, -1.0))


def _signed_zero_rich(rng, shape):
    # real and imaginary parts from {+0, -0, 1, -1}, zeros twice as likely
    parts = rng.choice([0.0, -0.0, 0.0, -0.0, 1.0, -1.0], size=(2,) + shape)
    return parts[0] + 1j * parts[1]


def _zero_sign_patterns(n):
    # every x in {+0, -0, 1}^n, also rotated into the imaginary part: the
    # mirror of x_i - x_j is not its negation where x_i = x_j, so a trailing
    # half formed by negating the leading one gets signs of zero wrong here
    grid = np.array(list(itertools.product([0.0, -0.0, 1.0], repeat=n)))
    return np.concatenate([grid + 0j, grid * (1 - 1j), 1j * grid + grid[::-1]])


def _bit_inputs(n, rng):
    # the input families that tell the routes' bytes apart: zero-sign grids,
    # signed-zero-rich, Gaussian and 1e307 * Gaussian, as vectors and as a
    # (2, 3, n) stack
    inputs = [_zero_sign_patterns(n)] if n < 8 else []
    for shape in ((n,), (2, 3, n)):
        gauss = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        inputs += [gauss, _signed_zero_rich(rng, shape), 1e307 * gauss]
    return inputs


@pytest.mark.parametrize("n", list(range(2, 71)) + [1000, 1001, 4097])
def test_r_kernels_keep_the_full_length_bits(n):
    # the windowed route and the in-place stencil write every byte, signed
    # zeros included, that the full-length computations write
    r = SpecialTridiag(n)
    for x in _bit_inputs(n, np.random.default_rng(n)):
        assert r_apply(r, x).tobytes() == _stencil_reference(x).tobytes()
        assert r_apply_via_relation(r, x).tobytes() == _relation_reference(x).tobytes()


@pytest.mark.parametrize("window", [1, 2, 3, 7, 64])
@pytest.mark.parametrize("n", range(2, 71))
def test_relation_windows_keep_the_full_length_bits(monkeypatch, window, n):
    # windows shorter than n, down to one output: every window boundary,
    # both wraps and a last window of any length give the full-length bytes
    monkeypatch.setattr(relation, "_WINDOW", window)
    r = SpecialTridiag(n)
    for x in _bit_inputs(n, np.random.default_rng(n)):
        assert r_apply_via_relation(r, x).tobytes() == _relation_reference(x).tobytes()


_W = relation._WINDOW


@pytest.mark.parametrize("n", [_W - 1, _W, _W + 1, _W + 2, 2 * _W + 1, 3 ** 11])
def test_relation_route_keeps_the_full_length_bits_around_its_window(n):
    r = SpecialTridiag(n)
    for x in _bit_inputs(n, np.random.default_rng(n)):
        assert r_apply_via_relation(r, x).tobytes() == _relation_reference(x).tobytes()


@pytest.mark.parametrize("window", [3, 7, _W])
@pytest.mark.parametrize("overflow_first", [True, False], ids=["overflow-first", "subnormal-first"])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["even-overflows", "odd-overflows"])
@pytest.mark.parametrize("shape", [(), (2, 3)], ids=["vector", "stack"])
def test_relation_windows_share_one_overflow_decision(monkeypatch, window, overflow_first,
                                                      sign, shape):
    # one pair sum overflows and a subnormal pair lies in another window.
    # At full length the overflow makes the whole half come from the halved
    # input, which rounds the subnormal pair differently (5e-324 / 2 is 0),
    # so a window that decided on its own would change those bytes
    monkeypatch.setattr(relation, "_WINDOW", window)
    n = 3 * window + 2
    near, far = (window + 1, 0) if overflow_first else (0, window + 1)
    x = np.zeros(shape + (n,), dtype=np.complex128)
    x[..., far], x[..., n - 1 - far] = 1e308, sign * 1e308
    x[..., near], x[..., n - 1 - near] = 5e-324, 1e-323 + 5e-324j
    x[(0,) * len(shape) + (n // 2,)] = 1j
    with np.errstate(over="ignore"):
        via = r_apply_via_relation(SpecialTridiag(n), x)
        reference = _relation_reference(x)
    assert via.tobytes() == reference.tobytes()
    combine = np.add if sign > 0 else np.subtract
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        combine(x, x[..., ::-1])


@pytest.mark.parametrize("n", list(range(2, 65)) + [127, 128, 1023, 1024])
def test_both_r_paths_equal_dense_r_on_the_unit_basis(n):
    # every intermediate is a dyadic rational (a half of 0 or 1, or a
    # difference of such halves), so the identity
    # R_n = (pi - pi^T) E_plus + (eta - eta^T) E_minus holds bit for bit at n
    r = SpecialTridiag(n)
    basis = np.eye(n, dtype=np.complex128)
    columns = r_dense(r).T.tobytes()
    assert r_apply(r, basis).tobytes() == columns
    assert r_apply_via_relation(r, basis).tobytes() == columns


def test_relation_route_raises_where_the_caller_makes_underflow_raise():
    # halving 5e-324 underflows on both routes; the windowed one raises it
    # rather than forming the half again
    x = [5e-324, 0, 0, 0]
    for func in (_relation_reference, lambda x: r_apply_via_relation(SpecialTridiag(4), x)):
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            func(x)


@pytest.mark.parametrize("func, budget", [(r_apply, 1.1), (r_apply_via_relation, 1.15)],
                         ids=["r_apply", "r_apply_via_relation"])
def test_r_kernels_allocate_within_budget(func, budget):
    # peak traced allocation of one call, as a multiple of x.nbytes: the
    # output, plus for the relation route a few arrays of one window each
    n = 2 ** 18
    r = SpecialTridiag(n)
    rng = np.random.default_rng(18)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    func(r, x)
    tracemalloc.start()
    try:
        y = func(r, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert y.shape == x.shape
    assert peak <= budget * x.nbytes


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


@pytest.mark.parametrize("n", [2, 3, 17, 64, 257])
def test_rank_one_defects_equal_their_closed_forms(n):
    d_plus, d_minus = rank_one_defects(n)
    e = np.eye(n, dtype=np.complex128)
    first, last = e[0], e[n - 1]
    np.testing.assert_array_equal(d_plus, np.outer(last + first, last - first))
    np.testing.assert_array_equal(d_minus, np.outer(last - first, last + first))


def test_defects_annihilate_parity_parts_exactly():
    rng = np.random.default_rng(92)
    for n in (2, 3, 8, 16):
        d_plus, d_minus = rank_one_defects(n)
        # exact on integer vectors: no rounding anywhere in the product
        x = rng.integers(-100, 100, n).astype(np.complex128)
        split = even_odd_split(2 * x)  # doubling keeps the halves integral
        np.testing.assert_array_equal(d_plus @ split.even, np.zeros(n))
        np.testing.assert_array_equal(d_minus @ split.odd, np.zeros(n))


def test_closed_form_defect_norms_match_dense_defects_on_broken_splits():
    # halves with no parity, so that neither defect annihilates its half; the
    # relation suite measures ||D_plus y|| = sqrt(2) |y_n - y_1| and
    # ||D_minus y|| = sqrt(2) |y_n + y_1|
    rng = np.random.default_rng(93)
    for n in range(2, 65):
        draws = rng.standard_normal((4, 5, n))
        even, odd = draws[0] + 1j * draws[1], draws[2] + 1j * draws[3]
        d_plus, d_minus = rank_one_defects(n)
        np.testing.assert_allclose(np.sqrt(2) * np.abs(even[:, -1] - even[:, 0]),
                                   np.linalg.norm(even @ d_plus.T, axis=-1),
                                   rtol=1e-15, atol=0)
        np.testing.assert_allclose(np.sqrt(2) * np.abs(odd[:, -1] + odd[:, 0]),
                                   np.linalg.norm(odd @ d_minus.T, axis=-1),
                                   rtol=1e-15, atol=0)


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
