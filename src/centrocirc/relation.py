"""The near-Toeplitz tridiagonal operator and its circulant restrictions.

``R_n`` has -1 on the subdiagonal, +1 on the superdiagonal, and a diagonal
that is zero except for -1 in the (1,1) corner and +1 in the (n,n) corner.
It is centro-skew, and it acts as the circulant ``pi - pi^T`` on even
vectors and as the skew-circulant ``eta - eta^T`` on odd vectors.  The
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

from .dense import (
    DEFAULT_TOL,
    Tolerance,
    _require_length,
    _require_size,
    _require_square,
    as_matrix,
    matrix_power,
)
from .circulant import (
    Circulant,
    SkewCirculant,
    _circ_product,
    _scirc_product,
    _unit_shift_row,
    circ_dense,
    circ_spectrum,
    scirc_dense,
    scirc_spectrum,
)
from .centro import _split_parity


class ComplexEntriesError(ValueError):
    """Sign patterns are defined for real matrices only."""


@dataclass(frozen=True)
class SpecialTridiag:
    """The operator R_n, determined entirely by its size."""

    n: int

    def __post_init__(self):
        _require_size(self.n, 2)


def r_dense(r: SpecialTridiag) -> np.ndarray:
    n = r.n
    out = np.zeros((n, n), dtype=np.complex128)
    idx = np.arange(n - 1)
    out[idx + 1, idx] = -1.0
    out[idx, idx + 1] = 1.0
    out[0, 0] = -1.0
    out[n - 1, n - 1] = 1.0
    return out


def lower_shift_dense(n: int) -> np.ndarray:
    """Ones on the subdiagonal only; the building block of the identities
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


def r_apply_via_relation(r: SpecialTridiag, x) -> np.ndarray:
    """Apply R_n through its even/odd restrictions: the circulant part acts
    on the even component, the skew-circulant part on the odd component.
    x may be an ``(..., n)`` stack, transformed along the last axis.

    x is checked once, here.  The split by index reversal and the two
    products reuse the unchecked kernels behind ``even_odd_split``,
    ``circ_matvec`` and ``scirc_matvec``, so the call takes one twist
    ``sigma_powers(n)``."""
    split = _split_parity(_require_length(x, r.n))
    even_part = _circ_product(pi_minus_pit_coeffs(r.n), split.even)
    odd_part = _scirc_product(eta_minus_etat_coeffs(r.n), split.odd)
    return even_part + odd_part


def rank_one_defects(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The two defects (D_plus, D_minus) of the decomposition, checked
    against their closed rank-one forms entry for entry."""
    r = r_dense(SpecialTridiag(n))
    d_plus = r - circ_dense(pi_minus_pit_coeffs(n))
    d_minus = r - scirc_dense(eta_minus_etat_coeffs(n))
    e_first = np.zeros(n, dtype=np.complex128)
    e_last = np.zeros(n, dtype=np.complex128)
    e_first[0] = 1.0
    e_last[n - 1] = 1.0
    if not np.array_equal(d_plus, np.outer(e_last + e_first, e_last - e_first)):
        raise AssertionError("even-defect construction is broken")
    if not np.array_equal(d_minus, np.outer(e_last - e_first, e_last + e_first)):
        raise AssertionError("odd-defect construction is broken")
    return d_plus, d_minus


def _apply_defects(even: np.ndarray, odd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (D_plus @ even, D_minus @ odd) along the last axis, from the rank-one
    # forms D_plus y = (e_n + e_1)(y_n - y_1), D_minus y = (e_n - e_1)(y_n + y_1):
    # O(n) per vector, no dense defect
    d_plus_even = np.zeros_like(even)
    d_plus_even[..., 0] = d_plus_even[..., -1] = even[..., -1] - even[..., 0]
    d_minus_odd = np.zeros_like(odd)
    d_minus_odd[..., -1] = odd[..., -1] + odd[..., 0]
    d_minus_odd[..., 0] = -d_minus_odd[..., -1]
    return d_plus_even, d_minus_odd


def restriction_spectra(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the two restrictions of R_n.

    The even restriction pi - pi^T has values 2i sin(2 pi (k-1) / n) and the
    odd restriction eta - eta^T has values 2i sin((2k-1) pi / n), computed by
    the FFT of the first row (``circ_spectrum``) and of its sigma twist
    (``scirc_spectrum``).
    """
    return circ_spectrum(pi_minus_pit_coeffs(n)), scirc_spectrum(eta_minus_etat_coeffs(n))


@dataclass(frozen=True)
class SignPattern:
    """Square matrix with entries in {-1, 0, +1}."""

    entries: np.ndarray

    def __post_init__(self):
        entries = _require_square(as_matrix(self.entries))
        if not np.all(np.isin(entries, (-1, 0, 1))):
            raise ValueError("sign pattern entries must be -1, 0 or +1")
        object.__setattr__(self, "entries", entries.real.astype(np.int64))


def sign_pattern_of(a, tol: Tolerance = DEFAULT_TOL) -> SignPattern:
    """Entrywise signum with dead zone |a_ij| <= abs_eps -> 0."""
    a = _require_square(as_matrix(a))
    if np.max(np.abs(a.imag)) > tol.abs_eps:
        raise ComplexEntriesError("matrix has entries with nonreal parts")
    real = a.real
    signs = np.sign(real).astype(np.int64)
    signs[np.abs(real) <= tol.abs_eps] = 0
    return SignPattern(signs)


def has_sign_pattern(a, pattern: SignPattern, tol: Tolerance = DEFAULT_TOL) -> bool:
    return bool(np.array_equal(sign_pattern_of(a, tol).entries, pattern.entries))


def nilpotent_scaling(n: int) -> np.ndarray:
    """The positive diagonal f with f_k = 1 / (2 sin((2k-1) pi / (2n)))."""
    n = _require_size(n, 2)
    theta = (2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n)
    return 1.0 / (2.0 * np.sin(theta))


def nilpotent_realization(n: int) -> np.ndarray:
    """Diag(f) @ R_n: a nilpotent matrix with the sign pattern of R_n."""
    return nilpotent_scaling(n)[:, None] * r_dense(SpecialTridiag(n))


def _nilpotency_residual(a: np.ndarray, tol_nilp: float) -> tuple[float, float]:
    # (||A^n||_F, tol_nilp * max(1, ||A||_F)**n) for an already checked square A
    n = a.shape[0]
    bound = tol_nilp * max(1.0, float(np.linalg.norm(a))) ** n
    return float(np.linalg.norm(matrix_power(a, n))), bound


def verify_nilpotent(a, tol_nilp: float = 1e-8) -> bool:
    """Numerical nilpotency check by powering.

    True when ||A^n||_F <= tol_nilp * max(1, ||A||_F)**n.  The bound is
    relative to ||A||**n because powering amplifies round-off by roughly
    that factor.
    """
    power_norm, bound = _nilpotency_residual(_require_square(as_matrix(a)), tol_nilp)
    return power_norm <= bound
