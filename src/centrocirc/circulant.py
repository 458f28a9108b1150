"""Compact circulant and skew-circulant matrices.

A circulant is stored by its first row ``c``; each later row is the cyclic
right-shift of the one above, so the dense entry (i, j) is ``c[(j - i) % n]``.
A skew-circulant is the same shape with every entry strictly below the main
diagonal negated.

The basic circulant (first row ``0, 1, 0, ..., 0``) generates the circulant
algebra: ``Circ(c) = c_1 I + c_2 pi + ... + c_n pi**(n-1)``, and likewise the
basic skew-circulant generates the skew-circulants.  Products therefore
reduce to cyclic (resp. negacyclic) convolution of coefficient vectors, and
the eigenvalues are the coefficient polynomial evaluated at n-th roots of
unity (resp. at odd powers of the 2n-th root).

With ``D = Diag(1, sigma, ..., sigma**(n-1))``, ``SCirc(a) = D Circ(sigma o a) D*``:
a skew-circulant's spectrum and products are the circulant ones of the
sigma-twisted first row, conjugated by D.  So there is one FFT path, here:
one inverse FFT of a first row gives all n eigenvalues at once, and
``_spectrum`` is the only place they are computed.  Both fast products run
through ``_fft_product``: it allocates the spectrum and one transform
buffer, and scales, inverts and applies the twist in that buffer in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import _require_length, _require_size, as_vector
from .fourier import fourier_star_dense, make_fourier_pack, sigma_powers


@dataclass(frozen=True, eq=False)
class _FirstRow:
    # the first row both compact types share: a checked nonempty vector
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", as_vector(self.coeffs))

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]


class Circulant(_FirstRow):
    """First row of a circulant matrix."""


class SkewCirculant(_FirstRow):
    """First row of a skew-circulant matrix."""


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


def circ_dense(c: Circulant) -> np.ndarray:
    """Entry (i, j) is c[(j - i) % n]: windows of the doubled row (c, c)."""
    return _shifted_rows(np.concatenate((c.coeffs, c.coeffs)))


def scirc_dense(s: SkewCirculant) -> np.ndarray:
    """Windows of (-a, a): the entries below the diagonal come from -a."""
    # + 0.0 clears the negative zeros of the sign flip
    return _shifted_rows(np.concatenate((-s.coeffs, s.coeffs)) + 0.0)


def poly_eval(a, t: complex) -> complex:
    """Horner evaluation of a_1 + a_2 t + ... + a_n t**(n-1).

    The reference the FFT spectra are tested against, one point at a time.
    """
    a = as_vector(a)
    acc = complex(a[-1])
    for coeff in a[-2::-1]:
        acc = acc * t + coeff
    return acc


def _spectrum(row: np.ndarray) -> np.ndarray:
    # the eigenvalues of Circ(row): p_row at omega**k, k = 0..n-1
    return row.shape[0] * np.fft.ifft(row)


def circ_spectrum(c: Circulant) -> np.ndarray:
    """Eigenvalues in the canonical order: p_c at omega**k, k = 0..n-1."""
    return _spectrum(c.coeffs)


def scirc_spectrum(s: SkewCirculant) -> np.ndarray:
    """Eigenvalues p_a at sigma**(2k+1): the circulant ones of sigma o a."""
    return _spectrum(s.coeffs * sigma_powers(s.n))


def _fft_product(row: np.ndarray, x: np.ndarray,
                 twist: np.ndarray | None = None) -> np.ndarray:
    # Circ(row) @ x, or D Circ(row) D* x with D = Diag(twist): transform,
    # scale by the spectrum, invert.  Only the spectrum and the returned
    # buffer are allocated: the scaling, the inverse transform and both
    # twists run in place, D* by conjugating the caller's fresh twist there
    # and back.
    spectrum = _spectrum(row)
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
    return _fft_product(c.coeffs, _require_length(x, c.n))


def scirc_matvec(s: SkewCirculant, x) -> np.ndarray:
    """Fast product SCirc(a) @ x as D Circ(sigma o a) D* x, D = Diag(sigma**j).

    x may be an ``(..., n)`` stack, as for ``circ_matvec``.  The twist
    ``sigma_powers(n)`` is computed once per call and applied in place.
    Besides it and the twisted row, the product allocates the spectrum and
    one transform buffer, which it returns."""
    x = _require_length(x, s.n)
    twist = sigma_powers(s.n)
    return _fft_product(s.coeffs * twist, x, twist)


def circ_eigenpairs(c: Circulant) -> list[EigenPair]:
    """Analytic eigenpairs: value circ_spectrum(c)[k], unit vector column k of F*."""
    f_star = fourier_star_dense(c.n)
    values = circ_spectrum(c)
    return [EigenPair(value=values[k], vector=f_star[:, k]) for k in range(c.n)]


def scirc_eigenpairs(s: SkewCirculant) -> list[EigenPair]:
    """Analytic eigenpairs: value scirc_spectrum(s)[k], vector column k of H*."""
    h_star = make_fourier_pack(s.n).h_star
    values = scirc_spectrum(s)
    return [EigenPair(value=values[k], vector=h_star[:, k]) for k in range(s.n)]


def _folded_product(a: np.ndarray, b: np.ndarray, fold_sign: float) -> np.ndarray:
    # full polynomial product, then x**n -> fold_sign reduction
    if a.shape != b.shape:
        raise ValueError(f"size mismatch: {a.shape[0]} vs {b.shape[0]}")
    prod = np.convolve(a, b)
    out = prod[: a.shape[0]].copy()
    if prod.shape[0] > a.shape[0]:
        out[: prod.shape[0] - a.shape[0]] += fold_sign * prod[a.shape[0] :]
    return out


def circ_mul(a: Circulant, b: Circulant) -> Circulant:
    """Coefficient-domain product (cyclic convolution); exact over integers."""
    return Circulant(_folded_product(a.coeffs, b.coeffs, 1.0))


def scirc_mul(a: SkewCirculant, b: SkewCirculant) -> SkewCirculant:
    """Coefficient-domain product (negacyclic convolution); exact over integers."""
    return SkewCirculant(_folded_product(a.coeffs, b.coeffs, -1.0))
