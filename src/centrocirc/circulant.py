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

from .dense import _require_length, _require_size, as_vector
from .fourier import (
    _twisted_apply,
    dft_apply,
    fourier_star_dense,
    make_fourier_pack,
    sigma_powers,
)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    return _twisted_spectrum(s, sigma_powers(s.n))


def _twisted_spectrum(s: SkewCirculant, twist: np.ndarray) -> np.ndarray:
    # The product takes a temporary copy of the twist, as it would a fresh
    # sigma_powers(n): numpy may then compute it in place in that operand,
    # which rounds differently from coeffs * twist under FMA.  The spectrum
    # is thus bit for bit the same for a shared twist as for a fresh one.
    return s.n * np.fft.ifft(s.coeffs * twist.copy())


def _circ_product(c: Circulant, x: np.ndarray) -> np.ndarray:
    # Circ(c) @ x for an already checked (..., n) stack x
    return dft_apply(circ_spectrum(c) * dft_apply(x), inverse=True)


def _scirc_product(s: SkewCirculant, x: np.ndarray) -> np.ndarray:
    # SCirc(a) @ x for an already checked (..., n) stack x; the spectrum, H
    # and H* share one twist sigma_powers(n)
    twist = sigma_powers(s.n)
    scaled = _twisted_spectrum(s, twist) * _twisted_apply(x, twist, False)
    return _twisted_apply(scaled, twist, True)


def circ_matvec(c: Circulant, x) -> np.ndarray:
    """Fast product Circ(c) @ x: transform, scale by the spectrum, invert.

    x may be an ``(..., n)`` stack; each vector along the last axis is
    multiplied."""
    return _circ_product(c, _require_length(x, c.n))


def scirc_matvec(s: SkewCirculant, x) -> np.ndarray:
    """Fast product SCirc(a) @ x through the twisted transform.

    x may be an ``(..., n)`` stack, as for ``circ_matvec``.  The twist
    ``sigma_powers(n)`` is computed once per call and shared by the spectrum,
    the forward H and the inverse H*."""
    return _scirc_product(s, _require_length(x, s.n))


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
