"""Dense complex linear algebra used as the brute-force reference.

Everything here is deliberately plain: square/dense complex128 arrays,
O(n^3) algorithms, explicit validation.  The structured fast paths in the
other modules are always tested against these routines.

Formulas in the docs use 1-based indices (standard matrix-theory
convention); arrays are 0-based, so entry (i, j) of a formula lives at
``a[i-1, j-1]``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg


class SingularMatrixError(ValueError):
    """Raised when a pivot is zero to tolerance during an LU solve."""


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair used by the verification predicates."""

    abs_eps: float = 1e-10
    rel_eps: float = 1e-10

    def __post_init__(self):
        if not (np.isfinite(self.abs_eps) and np.isfinite(self.rel_eps)):
            raise ValueError("tolerances must be finite")
        if self.abs_eps < 0 or self.rel_eps < 0:
            raise ValueError("tolerances must be nonnegative")


DEFAULT_TOL = Tolerance()


def _as_finite(x, ndim: int, stacked: bool, noun: str) -> np.ndarray:
    # the one shape/finiteness check behind as_vector and as_matrix
    x = np.asarray(x, dtype=np.complex128)
    if (x.ndim < ndim if stacked else x.ndim != ndim) or x.size == 0:
        what = f"stack of {noun}s" if stacked else noun
        raise ValueError(f"expected a nonempty {what}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{noun} contains non-finite entries")
    return x


def as_vector(x, stacked: bool = False) -> np.ndarray:
    """Coerce to a 1-d complex128 array, rejecting NaN/Inf entries.

    With ``stacked=True`` any ``(..., n)`` array is accepted: a stack of
    vectors along the last axis.
    """
    return _as_finite(x, 1, stacked, "vector")


def as_matrix(a, stacked: bool = False) -> np.ndarray:
    """Coerce to a 2-d complex128 array, rejecting NaN/Inf entries.

    With ``stacked=True`` any ``(..., m, n)`` array is accepted: a stack of
    matrices along the last two axes.
    """
    return _as_finite(a, 2, stacked, "matrix")


def _require_square(a: np.ndarray) -> np.ndarray:
    # the one square check: a matrix, or each matrix of a stack on the last two axes
    if a.shape[-2] != a.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def frobenius_norm(a) -> float:
    return float(np.linalg.norm(as_matrix(a)))


def matrix_power(a, k: int) -> np.ndarray:
    """A**k by binary powering; A**0 is the identity."""
    a = _require_square(as_matrix(a))
    k = int(k)
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    return np.linalg.matrix_power(a, k)


def is_unitary(u, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when ||U U* - I||_F <= abs_eps + rel_eps * n."""
    u = _require_square(as_matrix(u))
    n = u.shape[0]
    defect = np.linalg.norm(u @ u.conj().T - np.eye(n))
    return bool(defect <= tol.abs_eps + tol.rel_eps * n)


def solve_dense(a, w, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Solve A z = w by LU with partial pivoting.

    Raises SingularMatrixError when some pivot falls below
    ``abs_eps * max(1, ||A||_F)``.
    """
    a = _require_square(as_matrix(a))
    w = as_vector(w)
    if a.shape[1] != w.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} x {w.shape}")
    with warnings.catch_warnings():
        # singularity is reported through the pivot check below
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    pivot_floor = tol.abs_eps * max(1.0, float(np.linalg.norm(a)))
    if np.min(np.abs(np.diag(lu))) <= pivot_floor:
        raise SingularMatrixError("matrix is singular to tolerance")
    return scipy.linalg.lu_solve((lu, piv), w, check_finite=False)
