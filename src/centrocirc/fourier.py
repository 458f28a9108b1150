"""Roots of unity, the unitary Fourier matrix and its half-twisted variant.

Conventions (0-based array indices j, k; size n):

* ``omega = exp(2i*pi/n)`` is the primitive n-th root of unity and
  ``sigma = exp(i*pi/n)`` its square root, so ``sigma**2 == omega``.
* ``f_star[j, k] = omega**(j*k) / sqrt(n)`` -- the unitary synthesis
  matrix.  Its conjugate ``F = conj(f_star)`` is the analysis matrix.
* ``h_star = Diag(1, sigma, ..., sigma**(n-1)) @ f_star``, the twisted
  transform that diagonalizes skew-circulants.

Powers of the roots are always evaluated as ``exp`` of the exact angle for
each index (with the exponent reduced mod n), never by repeated
multiplication, so there is no error accumulation at large powers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def omega_powers(n: int) -> np.ndarray:
    """[omega**0, ..., omega**(n-1)], each from its exact angle."""
    if n < 1:
        raise ValueError("size must be >= 1")
    return np.exp(2j * np.pi * np.arange(n) / n)


def sigma_powers(n: int) -> np.ndarray:
    """[sigma**0, ..., sigma**(n-1)], each from its exact angle."""
    if n < 1:
        raise ValueError("size must be >= 1")
    return np.exp(1j * np.pi * np.arange(n) / n)


def fourier_star_dense(n: int) -> np.ndarray:
    """The n x n matrix with entries omega**(j*k) / sqrt(n)."""
    if n < 1:
        raise ValueError("size must be >= 1")
    j = np.arange(n)
    # reduce j*k mod n before taking the angle: keeps every argument in [0, 2*pi)
    exponents = np.outer(j, j) % n
    return np.exp(2j * np.pi * exponents / n) / np.sqrt(n)


@dataclass(frozen=True)
class FourierPack:
    """The dense transform matrices F* and H* for one size n."""

    n: int
    f_star: np.ndarray
    h_star: np.ndarray


def make_fourier_pack(n: int) -> FourierPack:
    """F* and the one definition of H* = Diag(sigma**j) @ F*."""
    n = int(n)
    f_star = fourier_star_dense(n)
    return FourierPack(n=n, f_star=f_star, h_star=sigma_powers(n)[:, None] * f_star)


def dft_apply(x, inverse: bool = False) -> np.ndarray:
    """Multiply by F (forward) or by its inverse = F* (``inverse=True``).

    Unitary normalization 1/sqrt(n) in both directions, so a forward
    followed by an inverse is the identity to round-off.  Transforms along
    the last axis, so an ``(..., n)`` stack is transformed vector by vector.
    """
    x = np.asarray(x, dtype=np.complex128)
    if inverse:
        return np.fft.ifft(x, norm="ortho")
    return np.fft.fft(x, norm="ortho")


def h_apply(x, inverse: bool = False) -> np.ndarray:
    """Multiply by H (forward) or by its inverse = H* (``inverse=True``).

    H* is Diag(sigma**j) composed with F*, so the forward map is the
    conjugate twist followed by the forward transform.  Like ``dft_apply``,
    it acts along the last axis.
    """
    x = np.asarray(x, dtype=np.complex128)
    twist = sigma_powers(x.shape[-1])
    if inverse:
        return twist * np.fft.ifft(x, norm="ortho")
    return np.fft.fft(twist.conj() * x, norm="ortho")
