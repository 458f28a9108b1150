"""Roots of unity, the unitary Fourier matrix and its half-twisted variant.

Conventions (0-based array indices j, k; size n):

* ``omega = exp(2i*pi/n)`` is the primitive n-th root of unity and
  ``sigma = exp(i*pi/n)`` its square root, so ``sigma**2 == omega``.
* ``f_star[j, k] = omega**(j*k) / sqrt(n)`` -- the unitary synthesis
  matrix.  Its conjugate ``F = conj(f_star)`` is the analysis matrix.
* ``h_star = Diag(1, sigma, ..., sigma**(n-1)) @ f_star``, the twisted
  transform that diagonalizes skew-circulants.  Since
  ``SCirc(a) = D Circ(sigma o a) D*`` with ``D = Diag(sigma**j)``, the fast
  skew-circulant spectra and products in ``circulant`` are the circulant
  ones of ``sigma o a`` conjugated by D; this module holds only the roots
  and the dense matrices.

Powers of the roots are always evaluated as ``exp`` of the exact angle for
each index (with the exponent reduced mod n), never by repeated
multiplication, so there is no error accumulation at large powers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import _require_size


def _omega_powers(n: int) -> np.ndarray:
    """[omega**0, ..., omega**(n-1)], each from its exact angle."""
    n = _require_size(n, 1)
    return np.exp(2j * np.pi * np.arange(n) / n)


def sigma_powers(n: int) -> np.ndarray:
    """[sigma**0, ..., sigma**(n-1)], each from its exact angle."""
    n = _require_size(n, 1)
    return np.exp(1j * np.pi * np.arange(n) / n)


def fourier_star_dense(n: int) -> np.ndarray:
    """The n x n matrix with entries omega**(j*k) / sqrt(n).

    Entry (j, k) is gathered from ``_omega_powers(n)`` at ``j*k mod n``: n
    exps instead of n**2, and the same bits, since each power is already
    taken from its exact reduced angle.
    """
    powers = _omega_powers(n)
    j = np.arange(n)
    exponents = np.outer(j, j)
    exponents %= n
    out = powers[exponents]
    out /= np.sqrt(n)
    return out


@dataclass(frozen=True, eq=False)
class FourierPack:
    """The dense transform matrices F* and H* for one size n."""

    f_star: np.ndarray
    h_star: np.ndarray


def make_fourier_pack(n: int) -> FourierPack:
    """F* and the one definition of H* = Diag(sigma**j) @ F*."""
    f_star = fourier_star_dense(n)
    return FourierPack(f_star=f_star, h_star=sigma_powers(n)[:, None] * f_star)
