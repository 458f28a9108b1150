"""Compact circulant and skew-circulant matrices.

A circulant is stored by its first row ``c``; each later row is the cyclic
right-shift of the one above, so the dense entry (i, j) is ``c[(j - i) % n]``.
A skew-circulant is the same shape with every entry strictly below the main
diagonal negated.  Both are Davis's phi-circulants (*Circulant Matrices*,
1979, section 3.1): the shift wraps an entry around times ``wrap``, the class
attribute 1 or -1.  The object, not the function name, picks the family:
``circ_op(f)`` and ``scirc_op(f)`` agree for every ``f``, and a product of
the two families raises ``TypeError``.

The basic circulant (first row ``0, 1, 0, ..., 0``) generates the circulant
algebra: ``Circ(c) = c_1 I + c_2 pi + ... + c_n pi**(n-1)``, and likewise the
basic skew-circulant generates the skew-circulants.  Products therefore
reduce to cyclic (resp. negacyclic) convolution of coefficient vectors, and
the eigenvalues are the coefficient polynomial evaluated at n-th roots of
unity (resp. at odd powers of the 2n-th root).

With ``D = Diag(1, sigma, ..., sigma**(n-1))``, ``SCirc(a) = D Circ(sigma o a) D*``:
a skew-circulant's spectrum and products are the circulant ones of the
sigma-twisted first row, conjugated by D.  So there is one FFT path, here:
``_circulant_form`` is the only place that decides the twist, and its one
inverse FFT of the (twisted) first row gives all n eigenvalues.  Both fast
products run through ``_fft_product``: it allocates the spectrum and one
transform buffer, and scales, inverts and applies the twist there in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .dense import _require_length, _require_size, as_vector
from .fourier import fourier_star_dense, make_fourier_pack, sigma_powers


@dataclass(frozen=True, eq=False)
class _FirstRow:
    # the first row both compact types share: a checked nonempty vector
    coeffs: np.ndarray
    wrap: ClassVar[float]  # the factor the shift gives the entry it wraps around

    def __post_init__(self):
        object.__setattr__(self, "coeffs", as_vector(self.coeffs))

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]


class Circulant(_FirstRow):
    """First row of a circulant matrix; circ_* and scirc_* functions alike treat it as one."""

    wrap = 1.0


class SkewCirculant(_FirstRow):
    """First row of a skew-circulant; circ_* and scirc_* functions alike treat it as one."""

    wrap = -1.0


@dataclass(frozen=True, eq=False)
class EigenPair:
    value: complex
    vector: np.ndarray


def _unit_shift_row(n: int) -> np.ndarray:
    # the first row (0, 1, 0, ..., 0) of both basic generators
    coeffs = np.zeros(_require_size(n, 2), dtype=np.complex128)
    coeffs[1] = 1.0
    return coeffs


def basic_circulant(n: int) -> Circulant:
    """The single right-shift generator: first row (0, 1, 0, ..., 0)."""
    return Circulant(_unit_shift_row(n))


def basic_skew_circulant(n: int) -> SkewCirculant:
    """The signed shift generator: first row (0, 1, 0, ..., 0)."""
    return SkewCirculant(_unit_shift_row(n))


def _shifted_rows(doubled: np.ndarray) -> np.ndarray:
    # row i is doubled[n - i : 2n - i], so entry (i, j) is doubled[n + j - i]
    n = doubled.shape[0] // 2
    return np.lib.stride_tricks.sliding_window_view(doubled, n)[n:0:-1].copy()


def _dense(f: _FirstRow) -> np.ndarray:
    # windows of (c, c), never of (wrap * c, c): x * 1.0 drops a -0.0
    # imaginary part.  For the skew family, windows of (-a, a), where + 0.0
    # clears the negative zeros of the sign flip
    if f.wrap > 0:
        return _shifted_rows(np.concatenate((f.coeffs, f.coeffs)))
    return _shifted_rows(np.concatenate((-f.coeffs, f.coeffs)) + 0.0)


def circ_dense(c: Circulant) -> np.ndarray:
    """Entry (i, j) is c[(j - i) % n]: windows of the doubled row (c, c)."""
    return _dense(c)


def scirc_dense(s: SkewCirculant) -> np.ndarray:
    """Windows of (-a, a): the entries below the diagonal come from -a."""
    return _dense(s)


def poly_eval(a, t: complex) -> complex:
    """Horner evaluation of a_1 + a_2 t + ... + a_n t**(n-1).

    The reference the FFT spectra are tested against, one point at a time.
    """
    a = as_vector(a)
    acc = complex(a[-1])
    for coeff in a[-2::-1]:
        acc = acc * t + coeff
    return acc


def _circulant_form(f: _FirstRow) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    # f as D Circ(row) D* with the spectrum p_row at omega**k, k = 0..n-1: no
    # twist D for a circulant, D = Diag(sigma**j) and row sigma o a if skew
    twist = sigma_powers(f.n) if f.wrap < 0 else None
    row = f.coeffs if twist is None else f.coeffs * twist
    return twist, row, row.shape[0] * np.fft.ifft(row)


def circ_spectrum(c: Circulant) -> np.ndarray:
    """Eigenvalues in the canonical order: p_c at omega**k, k = 0..n-1."""
    return _circulant_form(c)[2]


def scirc_spectrum(s: SkewCirculant) -> np.ndarray:
    """Eigenvalues p_a at sigma**(2k+1): the circulant ones of sigma o a."""
    return _circulant_form(s)[2]


def _fft_product(f: _FirstRow, x) -> np.ndarray:
    # f @ x as D Circ(row) D* x: transform, scale by the spectrum, invert.
    # Besides the form, only the returned buffer is allocated: the scaling,
    # the inverse transform and both twists run in place, D* by conjugating
    # the fresh twist there and back.
    x = _require_length(x, f.n)
    twist, _, spectrum = _circulant_form(f)
    if twist is None:
        out = np.fft.fft(x, norm="ortho")
    else:
        np.conjugate(twist, out=twist)
        out = np.multiply(twist, x)
        np.fft.fft(out, norm="ortho", out=out)
        np.conjugate(twist, out=twist)
    np.multiply(spectrum, out, out=out)
    np.fft.ifft(out, norm="ortho", out=out)
    if twist is not None:
        out *= twist
    return out


def circ_matvec(c: Circulant, x) -> np.ndarray:
    """Fast product Circ(c) @ x: transform, scale by the spectrum, invert.

    x may be an ``(..., n)`` stack; each vector along the last axis is
    multiplied.  The product allocates the spectrum and one transform
    buffer, which it returns."""
    return _fft_product(c, x)


def scirc_matvec(s: SkewCirculant, x) -> np.ndarray:
    """Fast product SCirc(a) @ x as D Circ(sigma o a) D* x, D = Diag(sigma**j).

    x may be an ``(..., n)`` stack, as for ``circ_matvec``.  The twist
    ``sigma_powers(n)`` is computed once per call and applied in place.
    Besides it and the twisted row, the product allocates the spectrum and
    one transform buffer, which it returns."""
    return _fft_product(s, x)


def _eigenpairs(f: _FirstRow) -> list[EigenPair]:
    # the unit eigenvectors are the columns of F* (circulant) or H* (skew)
    vectors = fourier_star_dense(f.n) if f.wrap > 0 else make_fourier_pack(f.n).h_star
    values = _circulant_form(f)[2]
    return [EigenPair(value=values[k], vector=vectors[:, k]) for k in range(f.n)]


def circ_eigenpairs(c: Circulant) -> list[EigenPair]:
    """Analytic eigenpairs: value circ_spectrum(c)[k], unit vector column k of F*."""
    return _eigenpairs(c)


def scirc_eigenpairs(s: SkewCirculant) -> list[EigenPair]:
    """Analytic eigenpairs: value scirc_spectrum(s)[k], vector column k of H*."""
    return _eigenpairs(s)


def _folded_product(a: _FirstRow, b: _FirstRow) -> _FirstRow:
    # full polynomial product, then the x**n -> wrap reduction of the family
    if type(a) is not type(b):
        raise TypeError(f"cannot multiply {type(a).__name__} by {type(b).__name__}")
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    prod = np.convolve(a.coeffs, b.coeffs)
    out = prod[: a.n].copy()
    out[: a.n - 1] += a.wrap * prod[a.n :]
    return type(a)(out)


def circ_mul(a: Circulant, b: Circulant) -> Circulant:
    """Coefficient-domain product (cyclic convolution); exact over integers."""
    return _folded_product(a, b)


def scirc_mul(a: SkewCirculant, b: SkewCirculant) -> SkewCirculant:
    """Coefficient-domain product (negacyclic convolution); exact over integers."""
    return _folded_product(a, b)
