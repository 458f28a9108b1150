"""Circulant and skew-circulant storage, spectra, fast products, algebra."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrocirc import (
    Circulant,
    SkewCirculant,
    basic_circulant,
    basic_skew_circulant,
    circ_dense,
    circ_eigenpairs,
    circ_matvec,
    circ_mul,
    circ_spectrum,
    circ_transpose,
    poly_eval,
    scirc_dense,
    scirc_eigenpairs,
    scirc_matvec,
    scirc_mul,
    scirc_spectrum,
    scirc_transpose,
)

SQRT_HALF = np.sqrt(0.5)


def rolled_circulant(coeffs):
    """Row-shift oracle: row i of Circ(c) is c rolled right by i."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    return np.stack([np.roll(coeffs, i) for i in range(len(coeffs))])


def branch_skew_circulant(coeffs):
    """Entrywise oracle with the explicit below-diagonal sign branch."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    n = len(coeffs)
    out = np.empty((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            out[i, j] = coeffs[j - i] if j >= i else -coeffs[n + j - i]
    return out


def test_basic_circulant_dense_5():
    expected = np.array(
        [
            [0, 1, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 1],
            [1, 0, 0, 0, 0],
        ],
        dtype=np.complex128,
    )
    np.testing.assert_array_equal(circ_dense(basic_circulant(5)), expected)


def test_basic_skew_circulant_dense_5():
    expected = np.array(
        [
            [0, 1, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 1],
            [-1, 0, 0, 0, 0],
        ],
        dtype=np.complex128,
    )
    np.testing.assert_array_equal(scirc_dense(basic_skew_circulant(5)), expected)


def test_basic_generators_dense_4():
    pi = circ_dense(basic_circulant(4))
    eta = scirc_dense(basic_skew_circulant(4))
    np.testing.assert_array_equal(
        pi, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]]
    )
    np.testing.assert_array_equal(
        eta, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0]]
    )


def test_basic_generators_reject_size_one():
    with pytest.raises(ValueError):
        basic_circulant(1)
    with pytest.raises(ValueError):
        basic_skew_circulant(1)


def test_circ_dense_matches_roll_oracle():
    rng = np.random.default_rng(31)
    for n in (1, 2, 5, 9):
        c = rng.integers(-5, 6, n).astype(np.complex128)
        np.testing.assert_array_equal(circ_dense(Circulant(c)), rolled_circulant(c))


def test_scirc_dense_matches_branch_oracle():
    rng = np.random.default_rng(32)
    for n in (1, 2, 5, 9):
        a = rng.integers(-5, 6, n).astype(np.complex128)
        np.testing.assert_array_equal(
            scirc_dense(SkewCirculant(a)), branch_skew_circulant(a)
        )


def _rows_for_dense_builders(n):
    rng = np.random.default_rng(100 + n)
    complex_row = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    signed_zeros = np.where(np.arange(n) % 2 == 0, -0.0, 0.0)
    mixed = complex_row.copy()
    mixed[::3] = complex(-0.0, -0.0)
    mixed[1::3] = 0.0
    return complex_row, np.zeros(n), signed_zeros + 0j * signed_zeros, mixed


@pytest.mark.parametrize("n", range(1, 41))
def test_dense_builders_match_index_formulas(n):
    i, j = np.indices((n, n))
    for row in _rows_for_dense_builders(n):
        c = Circulant(row)
        assert np.array_equal(circ_dense(c), c.coeffs[(j - i) % n])
        s = SkewCirculant(row)
        expected = np.where(j < i, -1, 1) * s.coeffs[(j - i) % n] + 0.0
        dense = scirc_dense(s)
        assert np.array_equal(dense, expected)
        # the sign flip must not leave negative zeros behind
        assert not np.any(np.signbit(dense.real) & (dense.real == 0))
        assert not np.any(np.signbit(dense.imag) & (dense.imag == 0))


def test_transposes_match_dense_transpose():
    rng = np.random.default_rng(33)
    c = Circulant(rng.standard_normal(7))
    s = SkewCirculant(rng.standard_normal(7))
    np.testing.assert_array_equal(circ_dense(circ_transpose(c)), circ_dense(c).T)
    np.testing.assert_array_equal(scirc_dense(scirc_transpose(s)), scirc_dense(s).T)


def test_poly_eval_against_numpy():
    a = np.array([2, 0, -1, 3], dtype=np.complex128)
    for t in (0.0, 1.0, -2.0, 1j, 0.3 - 0.7j):
        assert poly_eval(a, t) == pytest.approx(np.polyval(a[::-1], t))


def test_circ_spectrum_basic_4_frozen():
    # p(t) = t at the fourth roots of unity
    np.testing.assert_allclose(
        circ_spectrum(basic_circulant(4)), [1, 1j, -1, -1j], atol=1e-14
    )


def test_scirc_spectrum_basic_4_frozen():
    # p(t) = t at the odd eighth roots of unity
    expected = np.array(
        [
            SQRT_HALF + SQRT_HALF * 1j,
            -SQRT_HALF + SQRT_HALF * 1j,
            -SQRT_HALF - SQRT_HALF * 1j,
            SQRT_HALF - SQRT_HALF * 1j,
        ]
    )
    np.testing.assert_allclose(
        scirc_spectrum(basic_skew_circulant(4)), expected, atol=1e-14
    )


def sorted_by_angle(values):
    values = np.asarray(values)
    return values[np.lexsort((values.imag.round(9), values.real.round(9)))]


@pytest.mark.parametrize("n", [2, 3, 4, 7, 12])
def test_spectra_match_dense_eigenvalues(n):
    rng = np.random.default_rng(100 + n)
    c = Circulant(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    s = SkewCirculant(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    np.testing.assert_allclose(
        sorted_by_angle(circ_spectrum(c)),
        sorted_by_angle(np.linalg.eigvals(circ_dense(c))),
        atol=1e-9,
    )
    np.testing.assert_allclose(
        sorted_by_angle(scirc_spectrum(s)),
        sorted_by_angle(np.linalg.eigvals(scirc_dense(s))),
        atol=1e-9,
    )


def test_spectrum_routes_agree():
    # fft route vs direct polynomial evaluation at the same roots
    rng = np.random.default_rng(41)
    for n in (2, 5, 16):
        c = Circulant(rng.standard_normal(n))
        s = SkewCirculant(rng.standard_normal(n))
        omega_k = np.exp(2j * np.pi * np.arange(n) / n)
        sigma_k = np.exp(1j * np.pi * (2 * np.arange(n) + 1) / n)
        np.testing.assert_allclose(
            circ_spectrum(c), [poly_eval(c.coeffs, t) for t in omega_k], atol=1e-12
        )
        np.testing.assert_allclose(
            scirc_spectrum(s), [poly_eval(s.coeffs, t) for t in sigma_k], atol=1e-12
        )


@pytest.mark.parametrize("n", [2, 3, 6, 17])
def test_matvec_matches_dense(n):
    rng = np.random.default_rng(200 + n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c = Circulant(rng.standard_normal(n))
    s = SkewCirculant(rng.standard_normal(n))
    np.testing.assert_allclose(circ_matvec(c, x), circ_dense(c) @ x, atol=1e-12)
    np.testing.assert_allclose(scirc_matvec(s, x), scirc_dense(s) @ x, atol=1e-12)
    # a (2, 3, n) stack is multiplied vector by vector along the last axis
    stack = rng.standard_normal((2, 3, n)) + 1j * rng.standard_normal((2, 3, n))
    for matvec, operator in ((circ_matvec, c), (scirc_matvec, s)):
        rows = [[matvec(operator, row) for row in block] for block in stack]
        np.testing.assert_allclose(matvec(operator, stack), rows, rtol=0, atol=1e-13)


def test_matvec_length_mismatch():
    with pytest.raises(ValueError):
        circ_matvec(basic_circulant(4), np.ones(5))
    with pytest.raises(ValueError):
        scirc_matvec(basic_skew_circulant(4), np.ones(3))
    with pytest.raises(ValueError):
        circ_matvec(basic_circulant(4), np.ones((3, 5)))
    with pytest.raises(ValueError):
        scirc_matvec(basic_skew_circulant(4), np.ones((4, 3)))


def test_matvec_rejects_nonfinite_row():
    x = np.ones((3, 4), dtype=np.complex128)
    x[2, 1] = np.nan
    with pytest.raises(ValueError):
        circ_matvec(basic_circulant(4), x)
    with pytest.raises(ValueError):
        scirc_matvec(basic_skew_circulant(4), x)


@pytest.mark.parametrize("n", [2, 3, 8])
def test_eigenpairs_residuals(n):
    rng = np.random.default_rng(300 + n)
    c = Circulant(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    s = SkewCirculant(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    for dense, pairs, spectrum in (
        (circ_dense(c), circ_eigenpairs(c), circ_spectrum(c)),
        (scirc_dense(s), scirc_eigenpairs(s), scirc_spectrum(s)),
    ):
        assert len(pairs) == n
        # one eigenvalue path: the pairs carry the FFT spectrum unchanged
        np.testing.assert_array_equal([pair.value for pair in pairs], spectrum)
        for pair in pairs:
            assert np.linalg.norm(pair.vector) == pytest.approx(1.0)
            residual = np.linalg.norm(dense @ pair.vector - pair.value * pair.vector)
            assert residual <= 1e-12 * n * max(1.0, np.linalg.norm(dense))


def test_eigenvectors_do_not_depend_on_coeffs():
    vecs_a = [p.vector for p in circ_eigenpairs(Circulant([1, 2, 3]))]
    vecs_b = [p.vector for p in circ_eigenpairs(Circulant([-7, 0, 4]))]
    for va, vb in zip(vecs_a, vecs_b):
        np.testing.assert_array_equal(va, vb)


def test_circ_mul_frozen_2x2():
    # (1 + 2t)(3 + t) = 3 + 7t + 2t^2, and t^2 = 1 cyclically
    out = circ_mul(Circulant([1, 2]), Circulant([3, 1]))
    np.testing.assert_array_equal(out.coeffs, [5, 7])


def test_scirc_mul_frozen_2x2():
    # same product with t^2 = -1
    out = scirc_mul(SkewCirculant([1, 2]), SkewCirculant([3, 1]))
    np.testing.assert_array_equal(out.coeffs, [1, 7])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=9).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        )
    )
)
def test_mul_agrees_with_dense_product(pair):
    a, b = pair
    ca, cb = Circulant(a), Circulant(b)
    np.testing.assert_array_equal(
        circ_dense(circ_mul(ca, cb)), circ_dense(ca) @ circ_dense(cb)
    )
    sa, sb = SkewCirculant(a), SkewCirculant(b)
    np.testing.assert_array_equal(
        scirc_dense(scirc_mul(sa, sb)), scirc_dense(sa) @ scirc_dense(sb)
    )


def test_mul_commutes_exactly():
    a = Circulant([3, -1, 4, 1, -5])
    b = Circulant([2, 7, -1, 8, 2])
    np.testing.assert_array_equal(circ_mul(a, b).coeffs, circ_mul(b, a).coeffs)
    sa = SkewCirculant([3, -1, 4, 1, -5])
    sb = SkewCirculant([2, 7, -1, 8, 2])
    np.testing.assert_array_equal(scirc_mul(sa, sb).coeffs, scirc_mul(sb, sa).coeffs)


def test_mul_size_mismatch():
    with pytest.raises(ValueError):
        circ_mul(Circulant([1, 2]), Circulant([1, 2, 3]))
    with pytest.raises(ValueError):
        scirc_mul(SkewCirculant([1]), SkewCirculant([1, 2]))


def test_generator_power_identities_small():
    # pi^n = I and eta^n = -I, computed exactly in the coefficient domain
    for n in (2, 3, 4, 5, 8):
        pi_pow = basic_circulant(n)
        for _ in range(n - 1):
            pi_pow = circ_mul(pi_pow, basic_circulant(n))
        identity = np.zeros(n)
        identity[0] = 1.0
        np.testing.assert_array_equal(pi_pow.coeffs, identity)

        eta_pow = basic_skew_circulant(n)
        for _ in range(n - 1):
            eta_pow = scirc_mul(eta_pow, basic_skew_circulant(n))
        np.testing.assert_array_equal(eta_pow.coeffs, -identity)


def _count_calls(monkeypatch, home, name, record):
    """Wrap the function ``name`` of module ``home`` in every centrocirc
    module that binds it; ``record`` gets the positional arguments of each
    call."""
    original = getattr(sys.modules[home], name)

    def counting(*args, **kwargs):
        record(args)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "centrocirc" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)


@pytest.mark.parametrize("n", [2, 7, 64])
def test_one_twist_per_skew_circulant_product(monkeypatch, n):
    import centrocirc

    calls = []
    _count_calls(monkeypatch, "centrocirc.fourier", "sigma_powers", calls.append)
    rng = np.random.default_rng(n)
    x = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    centrocirc.scirc_matvec(SkewCirculant(rng.standard_normal(n)), x)
    assert len(calls) == 1
    centrocirc.r_apply_via_relation(centrocirc.SpecialTridiag(n), x)
    assert len(calls) == 2


@pytest.mark.parametrize("n", [2, 7, 64])
def test_r_apply_via_relation_checks_its_input_once(monkeypatch, n):
    import centrocirc

    # a (2, n) stack tells the input's scans apart from the coefficient rows'
    x = np.random.default_rng(n).standard_normal((2, n)) + 0j
    shapes = []
    _count_calls(monkeypatch, "centrocirc.dense", "as_vector",
                 lambda args: shapes.append(np.shape(args[0])))
    centrocirc.r_apply_via_relation(centrocirc.SpecialTridiag(n), x)
    assert shapes.count(x.shape) == 1
