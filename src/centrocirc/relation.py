"""The near-Toeplitz tridiagonal operator and its circulant restrictions.

``R_n`` has -1 on the subdiagonal, +1 on the superdiagonal, and a diagonal
that is zero except for -1 in the (1,1) corner and +1 in the (n,n) corner.
It is centro-skew, and it acts as the circulant ``pi - pi^T`` on even
vectors and as the skew-circulant ``eta - eta^T`` on odd vectors, where
``pi`` is the cyclic shift and ``eta`` the shift that negates the entry it
wraps.  Both restrictions are applied as those shifts, in O(n).  The
defects

    D_plus  = R - (pi - pi^T)  = (e_n + e_1)(e_n - e_1)^T
    D_minus = R - (eta - eta^T) = (e_n - e_1)(e_n + e_1)^T

are rank one and annihilate the even resp. odd subspace, which is the whole
content of the decomposition.

Also here: sign patterns over {-1, 0, +1} and the positive diagonal scaling
``f_k = 1 / (2 sin((2k-1) pi / (2n)))`` that makes ``Diag(f) @ R_n``
nilpotent while preserving the sign pattern of ``R_n``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import _ABS_EPS, _require_length, _require_size, _require_square, as_matrix
from .circulant import (
    Circulant,
    SkewCirculant,
    _unit_shift_row,
    circ_dense,
    circ_spectrum,
    scirc_dense,
    scirc_spectrum,
)
from .centro import _split_parity


# relative tolerance of the nilpotency check
_NILPOTENT_TOL = 1e-8


class ComplexEntriesError(ValueError):
    """Sign patterns are defined for real matrices only."""


@dataclass(frozen=True)
class SpecialTridiag:
    """The operator R_n, determined entirely by its size."""

    n: int

    def __post_init__(self):
        _require_size(self.n, 2)


def r_dense(r: SpecialTridiag) -> np.ndarray:
    """R_n = Z^T - Z - e1 e1^T + en en^T from the lower shift Z."""
    z = lower_shift_dense(r.n)
    out = z.T - z
    out[0, 0] = -1.0
    out[-1, -1] = 1.0
    return out


def lower_shift_dense(n: int) -> np.ndarray:
    """Ones on the subdiagonal only: the shift Z behind ``r_dense``'s
    R = Z^T - Z - e1 e1^T + en en^T and its circulant analogues."""
    n = _require_size(n, 1)
    out = np.zeros((n, n), dtype=np.complex128)
    idx = np.arange(n - 1)
    out[idx + 1, idx] = 1.0
    return out


def r_apply(r: SpecialTridiag, x) -> np.ndarray:
    """O(n) stencil: y_i = x_{i+1} - x_{i-1}, with the missing neighbours at
    the two ends replaced by the boundary value itself.  x may be an
    ``(..., n)`` stack; the stencil runs along the last axis."""
    x = _require_length(x, r.n)
    y = np.empty(x.shape, dtype=np.complex128)
    y[..., 0] = x[..., 1] - x[..., 0]
    y[..., 1:-1] = x[..., 2:] - x[..., :-2]
    y[..., -1] = x[..., -1] - x[..., -2]
    return y


def pi_minus_pit_coeffs(n: int) -> Circulant:
    """pi - pi^T as a circulant: first row (0, 1, 0, ..., 0, -1)."""
    coeffs = _unit_shift_row(n)
    coeffs[-1] -= 1.0
    return Circulant(coeffs)


def eta_minus_etat_coeffs(n: int) -> SkewCirculant:
    """eta - eta^T as a skew-circulant: first row (0, 1, 0, ..., 0, 1)."""
    coeffs = _unit_shift_row(n)
    coeffs[-1] += 1.0
    return SkewCirculant(coeffs)


def _shift_difference(y: np.ndarray, wrap: float) -> np.ndarray:
    # (g - g^T) y along the last axis for the basic generator g, pi (wrap 1)
    # or eta (wrap -1): y_{i+1} - y_{i-1}, the neighbour across either end
    # taken from the other end times wrap
    out = np.empty_like(y)
    out[..., 1:-1] = y[..., 2:] - y[..., :-2]
    out[..., 0] = y[..., 1] - wrap * y[..., -1]
    out[..., -1] = wrap * y[..., 0] - y[..., -2]
    return out


def r_apply_via_relation(r: SpecialTridiag, x) -> np.ndarray:
    """Apply R_n through its even/odd restrictions: pi - pi^T acts on the
    even component and eta - eta^T on the odd component, each as shifts of
    its generator.  x may be an ``(..., n)`` stack, applied along the last
    axis.

    x is checked once, here, and split by index reversal with the kernel
    behind ``even_odd_split``.  The call is O(n) per vector: no FFT and no
    twist."""
    split = _split_parity(_require_length(x, r.n))
    return _shift_difference(split.even, 1.0) + _shift_difference(split.odd, -1.0)


def rank_one_defects(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The two defects D_plus = R - Circ(pi - pi^T) and
    D_minus = R - SCirc(eta - eta^T) of the decomposition, dense.

    Their closed forms are (e_n + e_1)(e_n - e_1)^T and
    (e_n - e_1)(e_n + e_1)^T."""
    r = r_dense(SpecialTridiag(n))
    return (r - circ_dense(pi_minus_pit_coeffs(n)),
            r - scirc_dense(eta_minus_etat_coeffs(n)))


def restriction_spectra(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the two restrictions of R_n.

    The even restriction pi - pi^T has values 2i sin(2 pi (k-1) / n) and the
    odd restriction eta - eta^T has values 2i sin((2k-1) pi / n), computed by
    the FFT of the first row (``circ_spectrum``) and of its sigma twist
    (``scirc_spectrum``).
    """
    return circ_spectrum(pi_minus_pit_coeffs(n)), scirc_spectrum(eta_minus_etat_coeffs(n))


@dataclass(frozen=True, eq=False)
class SignPattern:
    """Square matrix with entries in {-1, 0, +1}."""

    entries: np.ndarray

    def __post_init__(self):
        entries = _require_square(as_matrix(self.entries))
        if not np.all(np.isin(entries, (-1, 0, 1))):
            raise ValueError("sign pattern entries must be -1, 0 or +1")
        object.__setattr__(self, "entries", entries.real.astype(np.int64))


def sign_pattern_of(a) -> SignPattern:
    """Entrywise signum with dead zone |a_ij| <= 1e-10 -> 0."""
    a = _require_square(as_matrix(a))
    if np.max(np.abs(a.imag)) > _ABS_EPS:
        raise ComplexEntriesError("matrix has entries with nonreal parts")
    real = a.real
    signs = np.sign(real).astype(np.int64)
    signs[np.abs(real) <= _ABS_EPS] = 0
    return SignPattern(signs)


def has_sign_pattern(a, pattern: SignPattern) -> bool:
    return bool(np.array_equal(sign_pattern_of(a).entries, pattern.entries))


def nilpotent_scaling(n: int) -> np.ndarray:
    """The positive diagonal f with f_k = 1 / (2 sin((2k-1) pi / (2n)))."""
    n = _require_size(n, 2)
    theta = (2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n)
    return 1.0 / (2.0 * np.sin(theta))


def nilpotent_realization(n: int) -> np.ndarray:
    """Diag(f) @ R_n: a nilpotent matrix with the sign pattern of R_n."""
    return nilpotent_scaling(n)[:, None] * r_dense(SpecialTridiag(n))


def _nilpotency_residual(a: np.ndarray) -> tuple[float, float]:
    # (||A^n||_F, 1e-8 * max(1, ||A||_F)**n) for an already checked square A
    n = a.shape[0]
    bound = _NILPOTENT_TOL * max(1.0, float(np.linalg.norm(a))) ** n
    return float(np.linalg.norm(np.linalg.matrix_power(a, n))), bound


def verify_nilpotent(a) -> bool:
    """Numerical nilpotency check by powering.

    True when ||A^n||_F <= 1e-8 * max(1, ||A||_F)**n.  The bound is
    relative to ||A||**n because powering amplifies round-off by roughly
    that factor.
    """
    power_norm, bound = _nilpotency_residual(_require_square(as_matrix(a)))
    return power_norm <= bound
