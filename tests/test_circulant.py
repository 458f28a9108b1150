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
    poly_eval,
    scirc_dense,
    scirc_eigenpairs,
    scirc_matvec,
    scirc_mul,
    scirc_spectrum,
    sigma_powers,
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
        # array_equal treats -0.0 as 0.0; the bytes keep every signed zero
        assert circ_dense(c).tobytes() == c.coeffs[(j - i) % n].tobytes()
        s = SkewCirculant(row)
        expected = np.where(j < i, -1, 1) * s.coeffs[(j - i) % n] + 0.0
        dense = scirc_dense(s)
        assert np.array_equal(dense, expected)
        # the sign flip must not leave negative zeros behind
        assert not np.any(np.signbit(dense.real) & (dense.real == 0))
        assert not np.any(np.signbit(dense.imag) & (dense.imag == 0))


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


@pytest.mark.parametrize("n", [1, 2, 3, 64, 1024, 2**16])
def test_scirc_spectrum_is_circ_spectrum_of_twisted_row(n):
    # SCirc(a) = D Circ(sigma o a) D*, D = Diag(sigma**j): the same eigenvalues,
    # bit for bit at every n.  The twist is named: numpy turns a * temporary
    # into temporary *= a from 256 KiB on, and with FMA a*b and b*a can round
    # differently
    rng = np.random.default_rng(500 + n)
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    twist = sigma_powers(n)
    expected = circ_spectrum(Circulant(a * twist))
    assert scirc_spectrum(SkewCirculant(a)).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 64, 2**16])
def test_scirc_matvec_is_twisted_circ_matvec(n):
    rng = np.random.default_rng(600 + n)
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    twist = sigma_powers(n)
    expected = twist * circ_matvec(Circulant(twist * a), twist.conj() * x)
    gap = np.linalg.norm(scirc_matvec(SkewCirculant(a), x) - expected, axis=-1)
    assert np.all(gap <= 1e-13 * np.linalg.norm(expected, axis=-1))


def _spectrum_formula(row):
    return row.shape[0] * np.fft.ifft(row)


def _circ_matvec_formula(c, x):
    # the circulant product as three out-of-place expressions
    scaled = _spectrum_formula(c.coeffs) * np.fft.fft(x, norm="ortho")
    return np.fft.ifft(scaled, norm="ortho")


def _scirc_matvec_formula(s, x):
    # the skew product as out-of-place expressions on the exp-formula twist
    twist = np.exp(1j * np.pi * np.arange(s.n) / s.n)
    scaled = _spectrum_formula(s.coeffs * twist) * np.fft.fft(twist.conj() * x, norm="ortho")
    return twist * np.fft.ifft(scaled, norm="ortho")


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1000, 2**16])
@pytest.mark.parametrize("stack", [(), (3,)])
def test_in_place_products_keep_the_formula_values(n, stack):
    # the circulant product has the formula's bits.  The skew product may move
    # in the last bit: with FMA a*b and b*a can round differently, and numpy
    # turns the formula's final `twist * tmp` into `tmp *= twist` only for
    # temporaries of at least 256 KiB, so the formula's own order depends on n
    rng = np.random.default_rng(700 + n)
    x = rng.standard_normal(stack + (n,)) + 1j * rng.standard_normal(stack + (n,))
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    c, s = Circulant(a), SkewCirculant(a)
    assert circ_matvec(c, x).tobytes() == _circ_matvec_formula(c, x).tobytes()
    expected = _scirc_matvec_formula(s, x)
    assert np.max(np.abs(scirc_matvec(s, x) - expected)) <= 4e-16 * np.max(np.abs(expected))


def test_products_leave_their_input_alone():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    before = x.copy()
    for matvec, kind in ((circ_matvec, Circulant), (scirc_matvec, SkewCirculant)):
        op = kind(rng.standard_normal(8))
        coeffs = op.coeffs.copy()
        matvec(op, x)
        assert x.tobytes() == before.tobytes()
        assert op.coeffs.tobytes() == coeffs.tobytes()


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


def test_mixed_family_products_raise():
    c, s = Circulant([1, 2, 3]), SkewCirculant([1, 2, 3])
    for mul in (circ_mul, scirc_mul):
        for a, b in ((c, s), (s, c)):
            with pytest.raises(TypeError, match="Circulant"):
                mul(a, b)


_FAMILY_ORACLES = {Circulant: rolled_circulant, SkewCirculant: branch_skew_circulant}


@pytest.mark.parametrize("family", [Circulant, SkewCirculant])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 64])
def test_the_object_not_the_function_name_picks_the_family(family, n):
    # circ_op(f) and scirc_op(f) give the same bytes, and both are f's own
    # family's result
    rng = np.random.default_rng(800 + n)
    f, g = (family(row) for row in _rows_for_dense_builders(n)[::3])
    x = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    for circ_op, scirc_op in ((circ_dense, scirc_dense), (circ_spectrum, scirc_spectrum),
                              (lambda f: circ_matvec(f, x), lambda f: scirc_matvec(f, x))):
        assert circ_op(f).tobytes() == scirc_op(f).tobytes()
    dense = circ_dense(f)
    np.testing.assert_array_equal(dense, _FAMILY_ORACLES[family](f.coeffs))
    np.testing.assert_allclose(circ_matvec(f, x), x @ dense.T, atol=1e-12 * n)
    circ_pairs, scirc_pairs = circ_eigenpairs(f), scirc_eigenpairs(f)
    for a, b in zip(circ_pairs, scirc_pairs):
        assert a.value == b.value and a.vector.tobytes() == b.vector.tobytes()
        assert np.linalg.norm(dense @ a.vector - a.value * a.vector) <= 1e-12 * n * max(
            1.0, np.linalg.norm(dense))
    products = circ_mul(f, g), scirc_mul(f, g)
    assert [type(p) for p in products] == [family, family]
    assert products[0].coeffs.tobytes() == products[1].coeffs.tobytes()
    np.testing.assert_allclose(circ_dense(products[0]), dense @ circ_dense(g), atol=1e-12 * n)


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
    s = SkewCirculant(rng.standard_normal(n))
    shapes = []
    _count_calls(monkeypatch, "centrocirc.dense", "as_vector",
                 lambda args: shapes.append(np.shape(args[0])))
    centrocirc.scirc_matvec(s, x)
    assert len(calls) == 1
    assert shapes == [x.shape]
    centrocirc.scirc_spectrum(s)
    assert len(calls) == 2
    # R is applied as shifts of pi and eta, and Circ(c) without D: no twist at all
    centrocirc.r_apply_via_relation(centrocirc.SpecialTridiag(n), x)
    centrocirc.circ_matvec(Circulant(s.coeffs), x)
    assert len(calls) == 2


@pytest.mark.parametrize("argv", [("spectrum", "scirc", "1,2i,-0.0,3.25"),
                                  ("spectrum", "r-odd", "7"),
                                  ("spectrum", "circ", "1,2,3"),
                                  ("spectrum", "r-even", "7")])
def test_one_twist_per_skew_spectrum_command(monkeypatch, capsys, argv):
    from centrocirc.cli import main

    calls = []
    _count_calls(monkeypatch, "centrocirc.fourier", "sigma_powers", calls.append)
    assert main(list(argv)) == 0
    capsys.readouterr()
    assert len(calls) == (argv[1] in ("scirc", "r-odd"))


@pytest.mark.parametrize("n", [2, 7, 64])
def test_r_apply_via_relation_checks_its_input_once(monkeypatch, n):
    import centrocirc

    x = np.random.default_rng(n).standard_normal((2, n)) + 0j
    shapes = []
    _count_calls(monkeypatch, "centrocirc.dense", "as_vector",
                 lambda args: shapes.append(np.shape(args[0])))
    centrocirc.r_apply_via_relation(centrocirc.SpecialTridiag(n), x)
    assert shapes == [x.shape]
