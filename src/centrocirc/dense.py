"""Dense complex linear algebra used as the brute-force reference.

Everything here is deliberately plain: square/dense complex128 arrays,
O(n^3) algorithms, explicit validation.  The structured fast paths in the
other modules are always tested against these routines.

Formulas in the docs use 1-based indices (standard matrix-theory
convention); arrays are 0-based, so entry (i, j) of a formula lives at
``a[i-1, j-1]``.
"""

from __future__ import annotations

import math
import operator

import numpy as np


class SingularMatrixError(ValueError):
    """Raised when an LU solve finds A singular to tolerance.

    That is an exactly zero pivot, or a solution z of A z = w large enough
    to show ``||A^-1|| >= ||z|| / ||w|| > 1 / (1e-10 * max(1, ||A||_F))``.
    """


# absolute and relative tolerance of the centro predicates and the singularity floor
_ABS_EPS = 1e-10
_REL_EPS = 1e-10


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


def _require_size(n, least: int) -> int:
    # the one size check: an integer (numpy integers too) of at least `least`;
    # operator.index raises TypeError for 2.5 and other non-integral sizes
    n = operator.index(n)
    if n < least:
        raise ValueError(f"size must be >= {least}")
    return n


def _require_length(x, n: int) -> np.ndarray:
    # the one length check: x as a checked (..., n) stack of vectors
    x = as_vector(x, stacked=True)
    if x.shape[-1] != n:
        raise ValueError(f"length mismatch: {n} vs {x.shape[-1]}")
    return x


def _norm(x: np.ndarray) -> float:
    # the 2-norm (Frobenius for a matrix) that overflows only when the norm
    # itself does: hypot rescales by the largest modulus, where the plain
    # norm's squares overflow first
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(x))
    if math.isinf(norm):
        norm = math.hypot(*np.abs(x).ravel().tolist())
    return norm


def _unitary_defect(u: np.ndarray) -> float:
    # ||U U* - I||_F for an already checked square matrix
    return float(np.linalg.norm(u @ u.conj().T - np.eye(u.shape[0])))


def solve_dense(a, w) -> np.ndarray:
    """Solve A z = w by LU with partial pivoting (LAPACK ``gesv``).

    Raises SingularMatrixError when a pivot is exactly zero, or when
    ``||z|| * 1e-10 * max(1, ||A||_F) <= ||w||`` fails.  Since
    ``||A^-1|| >= ||z|| / ||w||``, that failure shows ``||A^-1||`` above
    ``1 / (1e-10 * max(1, ||A||_F))``.  The norms overflow only when their
    value does, so a NaN z always fails and an infinite z fails unless
    ``||w||`` is infinite too.  Where the norm of a finite z overflows, the
    test runs again on z / 2 and w / 2, a power-of-two scaling and so exact,
    so a z whose norm is below twice the float limit is decided as any
    other.  With w = 0 the solution is z = 0, which solves A z = 0 for every
    A, so only an exactly zero pivot raises.
    """
    a = _require_square(as_matrix(a))
    w = as_vector(w)
    if a.shape[1] != w.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} x {w.shape}")
    try:
        z = np.linalg.solve(a, w)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("matrix is singular") from None
    z_norm, w_norm = _norm(z), _norm(w)
    if math.isinf(z_norm) and np.all(np.isfinite(z)):
        z_norm, w_norm = _norm(z * 0.5), _norm(w * 0.5)
    # Python floats: an infinite product or 0 * inf (NaN) warns nowhere, and
    # the comparison still decides
    if not z_norm * (_ABS_EPS * max(1.0, _norm(a))) <= w_norm:
        raise SingularMatrixError("matrix is singular to tolerance")
    return z
