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
unity (resp. at odd powers of the 2n-th root).  One FFT of the first row
(resp. of its sigma twist) gives all n of them at once; ``circ_spectrum``
and ``scirc_spectrum`` are the only place they are computed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import as_vector
from .fourier import (
    dft_apply,
    fourier_star_dense,
    h_apply,
    make_fourier_pack,
    sigma_powers,
)


@dataclass(frozen=True)
class Circulant:
    """First row of a circulant matrix."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", as_vector(self.coeffs))

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]


@dataclass(frozen=True)
class SkewCirculant:
    """First row of a skew-circulant matrix."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", as_vector(self.coeffs))

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]


@dataclass(frozen=True)
class EigenPair:
    value: complex
    vector: np.ndarray


def basic_circulant(n: int) -> Circulant:
    """The single right-shift generator: first row (0, 1, 0, ..., 0)."""
    if n < 2:
        raise ValueError("the basic circulant needs n >= 2")
    coeffs = np.zeros(n, dtype=np.complex128)
    coeffs[1] = 1.0
    return Circulant(coeffs)


def basic_skew_circulant(n: int) -> SkewCirculant:
    """The signed shift generator: first row (0, 1, 0, ..., 0)."""
    if n < 2:
        raise ValueError("the basic skew-circulant needs n >= 2")
    coeffs = np.zeros(n, dtype=np.complex128)
    coeffs[1] = 1.0
    return SkewCirculant(coeffs)


def circ_dense(c: Circulant) -> np.ndarray:
    n = c.n
    i, j = np.indices((n, n))
    return c.coeffs[(j - i) % n]


def scirc_dense(s: SkewCirculant) -> np.ndarray:
    n = s.n
    i, j = np.indices((n, n))
    out = s.coeffs[(j - i) % n].copy()
    out[j < i] *= -1
    return out + 0.0  # clear negative zeros left by the sign flip


def circ_transpose(c: Circulant) -> Circulant:
    """Transpose stays circulant: first row becomes (c_1, c_n, ..., c_2)."""
    out = c.coeffs.copy()
    out[1:] = out[1:][::-1]
    return Circulant(out)


def scirc_transpose(s: SkewCirculant) -> SkewCirculant:
    """First row becomes (a_1, -a_n, ..., -a_2)."""
    out = s.coeffs.copy()
    out[1:] = -out[1:][::-1]
    return SkewCirculant(out)


def poly_eval(a, t: complex) -> complex:
    """Horner evaluation of a_1 + a_2 t + ... + a_n t**(n-1).

    The reference the FFT spectra are tested against, one point at a time.
    """
    a = as_vector(a)
    acc = complex(a[-1])
    for coeff in a[-2::-1]:
        acc = acc * t + coeff
    return acc


def circ_spectrum(c: Circulant) -> np.ndarray:
    """Eigenvalues in the canonical order: p_c at omega**k, k = 0..n-1."""
    return c.n * np.fft.ifft(c.coeffs)


def scirc_spectrum(s: SkewCirculant) -> np.ndarray:
    """Eigenvalues p_a at sigma**(2k+1), via the sigma twist of the coeffs."""
    return s.n * np.fft.ifft(s.coeffs * sigma_powers(s.n))


def circ_matvec(c: Circulant, x) -> np.ndarray:
    """Fast product Circ(c) @ x: transform, scale by the spectrum, invert.

    x may be an ``(..., n)`` stack; each vector along the last axis is
    multiplied."""
    x = as_vector(x, stacked=True)
    if x.shape[-1] != c.n:
        raise ValueError(f"length mismatch: {c.n} vs {x.shape[-1]}")
    return dft_apply(circ_spectrum(c) * dft_apply(x), inverse=True)


def scirc_matvec(s: SkewCirculant, x) -> np.ndarray:
    """Fast product SCirc(a) @ x through the twisted transform.

    x may be an ``(..., n)`` stack, as for ``circ_matvec``."""
    x = as_vector(x, stacked=True)
    if x.shape[-1] != s.n:
        raise ValueError(f"length mismatch: {s.n} vs {x.shape[-1]}")
    return h_apply(scirc_spectrum(s) * h_apply(x), inverse=True)


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
    prod = np.convolve(a, b)
    out = prod[: a.shape[0]].copy()
    if prod.shape[0] > a.shape[0]:
        out[: prod.shape[0] - a.shape[0]] += fold_sign * prod[a.shape[0] :]
    return out


def circ_mul(a: Circulant, b: Circulant) -> Circulant:
    """Coefficient-domain product (cyclic convolution); exact over integers."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    return Circulant(_folded_product(a.coeffs, b.coeffs, 1.0))


def scirc_mul(a: SkewCirculant, b: SkewCirculant) -> SkewCirculant:
    """Coefficient-domain product (negacyclic convolution); exact over integers."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    return SkewCirculant(_folded_product(a.coeffs, b.coeffs, -1.0))
