"""Exchange-matrix machinery: even/odd vectors and centro-symmetry.

The exchange matrix E has ones on the counter-diagonal; conjugation
``X -> E X E`` is an involution whose fixed points are the centro-symmetric
matrices and whose negated points are the centro-skew ones.  Vectors fixed
by E are even (palindromic), vectors negated by E are odd.  Since
E_n (x) E_n = E_{n^2}, conjugation ``X -> E X E`` reverses the row-major
vectorization vec X, so the centro-symmetric and centro-skew halves of X
are the even and odd halves of vec X.  Both actions are the one index
reversal of a last axis, never a materialized E.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import (
    _ABS_EPS,
    _REL_EPS,
    _norm,
    _require_size,
    _require_square,
    as_matrix,
    as_vector,
    solve_dense,
)
from .circulant import EigenPair


class NotCentroSymmetricError(ValueError):
    """Input failed the centro-symmetry predicate."""


class NotCentroSkewError(ValueError):
    """Input failed the centro-skew predicate."""


def exchange_dense(n: int) -> np.ndarray:
    """Ones on the counter-diagonal, zeros elsewhere."""
    return np.eye(_require_size(n, 1), dtype=np.complex128)[::-1]


_ROOT_HALF = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class EvenOddSplit:
    """x = even + odd with E even = even and E odd = -odd."""

    even: np.ndarray
    odd: np.ndarray


def even_odd_split(x) -> EvenOddSplit:
    """Split x, or each vector of an ``(..., n)`` stack along the last axis."""
    return _split_parity(as_vector(x, stacked=True))


def _half(x: np.ndarray, odd: bool) -> np.ndarray:
    # one half of the split by reversal of the last axis, for an already
    # checked stack: (y + Ey) / 2, or with odd (y - Ey) / 2.  The sum is
    # halved in place on its float64 view, which is exact (a complex division
    # by 2 would divide every element); a sum that overflows is formed again
    # from the halved input, so finite halves of finite input stay finite
    combine = np.subtract if odd else np.add
    try:
        with np.errstate(over="raise"):
            # C order keeps the last axis contiguous for the float64 view
            out = combine(x, x[..., ::-1], order="C")
    except FloatingPointError:
        halved = x * 0.5
        return combine(halved, halved[..., ::-1])
    out.view(np.float64)[...] *= 0.5
    return out


def _vec(x: np.ndarray) -> np.ndarray:
    # the row-major vectorization of each matrix of a stack: E X E reverses
    # vec X, so a matrix's centro halves are the even/odd halves of vec X
    return x.reshape(x.shape[:-2] + (-1,))


def _split_parity(x: np.ndarray) -> EvenOddSplit:
    # both halves of an already checked stack of vectors
    return EvenOddSplit(even=_half(x, odd=False), odd=_half(x, odd=True))


@dataclass(frozen=True, eq=False)
class CentroSplit:
    """X = sym + skew with sym centro-symmetric and skew centro-skew."""

    sym: np.ndarray
    skew: np.ndarray


def centro_split(x) -> CentroSplit:
    """Split X, or each matrix of an ``(..., n, n)`` stack on the last two axes."""
    return _split_centro(_require_square(as_matrix(x, stacked=True)))


def _split_centro(x: np.ndarray) -> CentroSplit:
    # both halves of an already checked stack of square matrices
    v = _vec(x)
    return CentroSplit(sym=_half(v, odd=False).reshape(x.shape),
                       skew=_half(v, odd=True).reshape(x.shape))


def _is_centro(x: np.ndarray, skew: bool) -> bool:
    # E X E = X, or with skew E X E = -X, for an already checked square
    # matrix: the half of vec X that must vanish, max |X -+ E X E| / 2, is
    # within 1e-10 / 2 + 1e-10 * max |X / 2|, scale-invariant.  Both sides
    # are halves, so they stay finite where a modulus of X overflows
    v = _vec(x)
    # a half whose modulus overflows is a defect of inf, which fails the bound
    with np.errstate(over="ignore"):
        defect = np.max(np.abs(_half(v, odd=not skew)))
    scale = float(np.max(np.abs(v * 0.5), initial=0.0))
    return bool(defect <= 0.5 * _ABS_EPS + _REL_EPS * scale)


def is_centro_symmetric(x) -> bool:
    return _is_centro(_require_square(as_matrix(x)), skew=False)


def is_centro_skew(x) -> bool:
    return _is_centro(_require_square(as_matrix(x)), skew=True)


@dataclass(frozen=True, eq=False)
class EvenOddBasis:
    """Orthonormal bases: columns of p_cols even, columns of q_cols odd.

    With r = ceil(n/2) and s = floor(n/2), the n x (r+s) concatenation
    (P, Q) is unitary.
    """

    p_cols: np.ndarray
    q_cols: np.ndarray


def even_odd_basis(n: int) -> EvenOddBasis:
    """Paired columns (e_k +/- e_{n+1-k})/sqrt(2), k ascending; for odd n the
    middle coordinate vector closes the even basis."""
    n = _require_size(n, 1)
    half = n // 2
    r = n - half
    p = np.zeros((n, r), dtype=np.complex128)
    q = np.zeros((n, half), dtype=np.complex128)
    for k in range(half):
        p[k, k] = _ROOT_HALF
        p[n - 1 - k, k] = _ROOT_HALF
        q[k, k] = _ROOT_HALF
        q[n - 1 - k, k] = -_ROOT_HALF
    if n % 2 == 1:
        p[half, r - 1] = 1.0
    return EvenOddBasis(p_cols=p, q_cols=q)


def _fold_half(x: np.ndarray, odd: bool) -> np.ndarray:
    """P* x along the last axis, or with ``odd`` Q* x, by pairing each entry
    with its mirror.

    Entry k of P* x is (x_k + x_{n+1-k}) / sqrt(2), closed by the middle
    entry when n is odd; entry k of Q* x is (x_k - x_{n+1-k}) / sqrt(2).
    O(n) per vector, and neither P nor Q is ever built.
    """
    half = x.shape[-1] // 2
    top, mirror = x[..., :half], x[..., ::-1][..., :half]
    if odd:
        out = (top - mirror) * _ROOT_HALF
    else:
        out = (top + mirror) * _ROOT_HALF
        if x.shape[-1] % 2:
            out = np.concatenate([out, x[..., half:half + 1]], axis=-1)
    return out


def _fold(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (P* x, Q* x) along the last axis
    return _fold_half(x, odd=False), _fold_half(x, odd=True)


def _fold_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # (P* X, Q* X) on the last two axes: P and Q are real, so P* X = (X^T P)^T,
    # the fold of the transposed rows transposed back
    even, odd = _fold(x.swapaxes(-1, -2))
    return even.swapaxes(-1, -2), odd.swapaxes(-1, -2)


def _unfold(y1: np.ndarray, y2: np.ndarray) -> np.ndarray:
    """P y1 + Q y2 along the last axis: the inverse of ``_fold``."""
    half = y2.shape[-1]
    paired = y1[..., :half]
    head = (paired + y2) * _ROOT_HALF
    tail = (paired - y2) * _ROOT_HALF
    return np.concatenate([head, y1[..., half:], tail[..., ::-1]], axis=-1)


def _block_pair(x: np.ndarray, diagonal: bool):
    # only two of the four blocks: (P*XP, Q*XQ) if diagonal, else (P*XQ, Q*XP)
    rows_even, rows_odd = _fold_rows(x)
    return _fold_half(rows_even, odd=not diagonal), _fold_half(rows_odd, odd=diagonal)


def block_form(x):
    """The four blocks of X in the even/odd basis: (P*XP, P*XQ, Q*XP, Q*XQ).

    X may also be an ``(..., n, n)`` stack; the blocks are then stacks too.
    The blocks come from the O(n^2) fold, not from P and Q.
    """
    x = _require_square(as_matrix(x, stacked=True))
    # fold the rows, then the columns of each half: (P* X) P is the
    # last-axis fold of P* X
    rows_even, rows_odd = _fold_rows(x)
    return _fold(rows_even) + _fold(rows_odd)


def solve_centro_symmetric(a, w) -> np.ndarray:
    """Solve A z = w through the two half-size even/odd systems.

    A must be centro-symmetric to tolerance; then P*AP and Q*AQ carry the
    whole problem and z = P y1 + Q y2 recombines the half-size solutions.
    Both reductions are folds, so the set-up is O(n^2).
    """
    a = as_matrix(a)
    w = as_vector(w)
    if not _is_centro(_require_square(a), skew=False):
        raise NotCentroSymmetricError("matrix is not centro-symmetric to tolerance")
    if a.shape[0] != w.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} x {w.shape}")
    a11, a22 = _block_pair(a, diagonal=True)
    w1, w2 = _fold(w)
    y1 = solve_dense(a11, w1)
    # n = 1 leaves no odd half to solve
    y2 = solve_dense(a22, w2) if w2.size else w2
    return _unfold(y1, y2)


def reflect_eigenpair(k, pair: EigenPair) -> EigenPair:
    """Map an eigenpair (lambda, z) of a centro-skew K to (-lambda, Ez).

    The input residual ||Kz - lambda z|| must already be within tolerance;
    the reflected pair then satisfies the same bound.
    """
    k = _require_square(as_matrix(k))
    if not _is_centro(k, skew=True):
        raise NotCentroSkewError("matrix is not centro-skew to tolerance")
    z = as_vector(pair.vector)
    residual = _norm(k @ z - pair.value * z)
    bound = _ABS_EPS + _REL_EPS * _norm(k) * _norm(z)
    if residual > bound:
        raise ValueError(
            f"input eigenpair residual {residual:.3e} exceeds tolerance {bound:.3e}"
        )
    return EigenPair(value=-pair.value, vector=z[::-1])
