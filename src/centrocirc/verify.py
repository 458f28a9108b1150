"""Seeded invariant suites behind the ``verify`` command.

Each suite walks a size range, draws reproducible random instances from a
PCG64 generator and yields per-sample residuals as (name, residuals, bound)
triples.  One reducer turns them into (name, value, bound) metrics: a
metric's value is the largest residual yielded under its name, and a NaN
residual makes it NaN, which fails its bound.  A run passes when every
metric value stays within its bound.  Identical seed means identical draws,
so repeated runs produce identical reports.  The relation suite and the
centro suite's structural checks draw integers in [-1024, 1024], on which
they are exact, so their bound is 0.  The centro suite reads its
multiplication table through each sample's own integer vector x, in O(n^2)
per sample, so a kernel that is wrong on every sample goes unseen with
probability at most 2049^-samples per size.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .dense import SingularMatrixError, _unitary_defect, solve_dense
from .fourier import make_fourier_pack
from .centro import (
    _block_pair,
    _half,
    _solve_folded,
    _split_centro,
    _split_parity,
    _vec,
    even_odd_split,
)
from .relation import (
    SpecialTridiag,
    _nilpotency_residual,
    has_sign_pattern,
    nilpotent_realization,
    r_apply,
    r_apply_via_relation,
    r_dense,
    sign_pattern_of,
)

RELATION_SAMPLES = 100
CENTRO_SAMPLES = 50
# complex entries per (k, n, n) stack in centro_suite: a few MiB of stacks
CENTRO_CHUNK_ENTRIES = 16384
SUITE_NAMES = ("relation", "nilpotent", "centro", "unitary", "all")
VERIFY_N_MIN = 2
VERIFY_N_MAX = 64


@dataclass(frozen=True)
class Metric:
    name: str
    value: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.value <= self.bound


_Residuals = Iterator[tuple[str, "np.ndarray | float", float]]


def _reduced(suite):
    # the suite's metrics: for each name, in first-yield order, the largest
    # residual; np.max and np.maximum keep a NaN from either side, where
    # max(0.0, nan) would drop it
    @functools.wraps(suite)
    def reduced(n_lo: int, n_hi: int, *args, **kwargs) -> list[Metric]:
        if n_lo > n_hi:
            raise ValueError(f"empty size range {n_lo}..{n_hi}")
        worst: dict[str, tuple[float, float]] = {}
        for name, residuals, bound in suite(n_lo, n_hi, *args, **kwargs):
            value = np.max(residuals)
            if name in worst:
                value = np.maximum(value, worst[name][0])
            worst[name] = value, bound
        return [Metric(name, float(value), bound)
                for name, (value, bound) in worst.items()]
    return reduced


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def ramp_even(n: int) -> np.ndarray:
    """The palindromic ramp (1, 2, ..., 2, 1)."""
    k = np.arange(1, n + 1)
    return np.minimum(k, n + 1 - k).astype(np.complex128)


def ramp_odd(n: int) -> np.ndarray:
    """The anti-palindromic ramp (1, 2, ..., -2, -1), zero center if n odd."""
    k = np.arange(1, n + 1)
    return (np.minimum(k, n + 1 - k) * np.sign(n + 1 - 2 * k)).astype(np.complex128)


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    # re + 1j * im, with the parts assigned into the real and imaginary lanes
    # of one complex128 buffer: the same bits, without a complex multiply
    out = np.empty(re.shape, dtype=np.complex128)
    out.real = re
    out.imag = im
    return out


def _complex_rows(draws: np.ndarray, n: int) -> np.ndarray:
    # the first 2n draws of each row as one complex n-vector, real parts first
    return _complex(draws[:, :n], draws[:, n:2 * n])


def _norms(x: np.ndarray) -> np.ndarray:
    # 2-norm of each vector of a stack: the real dot product of its float64
    # view with itself, where np.linalg.norm would form the complex x.conj() * x
    v = np.ascontiguousarray(x).view(np.float64)
    return np.sqrt((v[..., None, :] @ v[..., :, None])[..., 0, 0])


def _fro_norms(x: np.ndarray) -> np.ndarray:
    # Frobenius norm of each matrix of a stack: the 2-norm of its entries
    return _norms(_vec(x))


def _matvecs(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    # a[i] @ x[i] for each matrix-vector pair of two stacks
    return (a @ x[..., None])[..., 0]


@_reduced
def relation_suite(n_lo: int, n_hi: int, rng: np.random.Generator) -> _Residuals:
    """R_n applied directly vs through its even/odd circulant restrictions.

    Each n is one stacked computation over the two ramps and the samples, a
    sample being 2n integers in [-1024, 1024], x_re | x_im.  Both kernels
    only add, subtract, halve and multiply by the wrap +-1, so every part of
    every intermediate is a multiple of 1/2 of modulus at most 4 max|x|,
    exact at every n: the outputs agree bit for bit, up to the sign of zero,
    or a kernel is wrong.  So ||r_apply(x) - r_apply_via_relation(x)|| is bounded by 0 and
    no longer divided by n ||x||; the metric keeps its name.  A wrong linear
    kernel agrees on a draw with probability at most 1/2049 (Freivalds, IFIP
    1977; Schwartz, JACM 1980), so it goes unseen with probability at most
    2049^-RELATION_SAMPLES per size.  The defects are measured by their
    closed forms, not applied: on the halves y of x,
    ||D_plus y|| = sqrt(2) |y_n - y_1| and ||D_minus y|| = sqrt(2) |y_n + y_1|.
    """
    for n in range(n_lo, n_hi + 1):
        r = SpecialTridiag(n)
        draws = rng.integers(-1024, 1025, (RELATION_SAMPLES, 2 * n), dtype=np.int32)
        x = np.vstack([ramp_even(n), ramp_odd(n), _complex_rows(draws, n)])
        diff = _norms(r_apply(r, x) - r_apply_via_relation(r, x))
        yield "max_relation_residual_over_n_normx", diff, 0.0
        split = even_odd_split(x)
        defect = math.sqrt(2) * (np.abs(split.even[..., -1] - split.even[..., 0])
                                 + np.abs(split.odd[..., -1] + split.odd[..., 0]))
        yield "max_defect_on_projected_parts", defect, 0.0


@_reduced
def nilpotent_suite(n_lo: int, n_hi: int) -> _Residuals:
    """Power norms of the scaled operator, plus sign-pattern preservation."""
    mismatches = 0
    for n in range(n_lo, n_hi + 1):
        scaled = nilpotent_realization(n)
        power_norm, bound = _nilpotency_residual(scaled)
        yield f"nilpotent_power_norm_n{n}", power_norm, bound
        pattern = sign_pattern_of(r_dense(SpecialTridiag(n)))
        mismatches += not has_sign_pattern(scaled, pattern)
    yield "sign_pattern_mismatch_count", float(mismatches), 0.0


def _chunks(samples: int, n: int):
    # sample counts whose (k, n, n) stacks stay within the entry budget
    k = max(1, CENTRO_CHUNK_ENTRIES // (n * n))
    for start in range(0, samples, k):
        yield min(k, samples - start)


@_reduced
def centro_suite(n_lo: int, n_hi: int, rng: np.random.Generator,
                 roundoff: float = 0.0, solve_tol: float = 1e-8,
                 samples: int = CENTRO_SAMPLES) -> _Residuals:
    """Projection algebra, the centro multiplication table, block structure
    and the half-size solver against the full LU.

    The samples of each n are evaluated as stacks, a chunk at a time.  A
    sample is one row of 2n + 4n^2 integers in [-1024, 1024], x_re | x_im |
    A_re | A_im | B_re | B_im, one vector and two matrices.  The table forms
    no product of two matrices: each product P of a half of A and a half of
    B is read through x, in O(n^2) per sample, by the half of P E+x and of
    P E-x that must vanish.  If P - EPE is not 0, (P - EPE) x = 0 for at
    most one x in 2049 (Freivalds, IFIP 1977; Schwartz, JACM 1980), so a
    kernel that is wrong on every sample goes unseen with probability at
    most 2049^-samples per size.  On these draws the five structural
    residuals are exact, so roundoff bounds them at 0: entries of at most
    2^10 give half-integer halves, and two chained matrix-vector products
    reach entries of n^2 2^32 in steps of 1/8, exact while
    n^2 2^35 <= 2^53, that is for n <= 512.  Only the half-size solve, on
    Gaussian draws, rounds.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    for n in range(n_lo, n_hi + 1):
        for k in _chunks(samples, n):
            draws = rng.integers(-1024, 1025, (k, 2 * n + 4 * n * n), dtype=np.int32)
            x = _complex_rows(draws, n)
            split = _split_parity(x)
            # E+ + E- = I, projections idempotent and orthogonal
            of_even = _split_parity(split.even)
            of_odd = _split_parity(split.odd)
            residual = _norms(split.even + split.odd - x)
            residual += _norms(of_even.even - split.even)
            residual += _norms(of_even.odd)
            residual += _norms(of_odd.odd - split.odd)
            residual += _norms(of_odd.even)
            yield "max_projection_residual", residual, roundoff

            mats = draws[:, 2 * n:].reshape(k, 4, n, n)
            a = _complex(mats[:, 0], mats[:, 1])
            parts = _split_centro(a)
            # the halves sum back to A.  A is not overwritten, as a wrong split
            # may return a view of it, and it goes before B is built
            sum_back = parts.sym + parts.skew
            sum_back -= a
            table = _fro_norms(sum_back)
            del a, sum_back
            other = _split_centro(_complex(mats[:, 2], mats[:, 3]))
            # each product P = p q through E+x and E-x, never formed: the odd
            # half of P E+x plus the even half of P E-x is (P - EPE) x / 2, so
            # both vanish if P is centro-symmetric, and the other two if it is
            # centro-skew.  vanishing[odd] collects the P E+-x whose odd half
            # (or, at False, even half) must vanish
            vanishing = ([], [])
            for q, q_skew in ((other.sym, False), (other.skew, True)):
                q_even, q_odd = _matvecs(q, split.even), _matvecs(q, split.odd)
                for p, p_skew in ((parts.sym, False), (parts.skew, True)):
                    skew = p_skew != q_skew
                    vanishing[not skew].append(_matvecs(p, q_even))
                    vanishing[skew].append(_matvecs(p, q_odd))
            for odd, vectors in enumerate(vanishing):
                halves = _half(np.stack(vectors, axis=1), odd=bool(odd))
                table += _norms(halves.reshape(k, -1))
            yield "max_multiplication_table_residual", table, roundoff

            # K E+ x and K E- x, read by the parity and the decomposition metrics
            skew_even = _matvecs(parts.skew, split.even)
            skew_odd = _matvecs(parts.skew, split.odd)
            parity = _norms(_half(_matvecs(parts.sym, split.even), odd=True))
            parity += _norms(_half(_matvecs(parts.sym, split.odd), odd=False))
            parity += _norms(_half(skew_even, odd=False)) + _norms(_half(skew_odd, odd=True))
            yield "max_action_parity_residual", parity, roundoff

            # centro-symmetric: off-diagonal blocks vanish; centro-skew: diagonal
            b12, b21 = _block_pair(parts.sym, diagonal=False)
            blocks = _fro_norms(b12) + _fro_norms(b21)
            k11, k22 = _block_pair(parts.skew, diagonal=True)
            blocks += _fro_norms(k11) + _fro_norms(k22)
            yield "max_block_structure_residual", blocks, roundoff

            # K z = w iff K E+ z = E- w and K E- z = E+ w
            wsplit = _split_parity(_matvecs(parts.skew, x))
            decomp = _norms(skew_even - wsplit.odd)
            decomp += _norms(skew_odd - wsplit.even)
            yield "max_solution_decomposition_residual", decomp, roundoff

        sym, w, z_full = _random_full_solve(rng, n)
        # the kernel itself: the public solver falls back to the full LU
        z_half = _solve_folded(sym, w)
        difference = float(np.linalg.norm(z_half - z_full))
        difference /= 1.0 + float(np.linalg.norm(z_full))
        yield "max_half_vs_full_solve_difference", difference, solve_tol


def _random_full_solve(rng: np.random.Generator, n: int):
    # sym, w and the full LU solve of sym z = w; sym is the even half of a
    # Gaussian vec draw, almost surely nonsingular, but retry to be safe
    for _ in range(64):
        sym = _half(_complex_normal(rng, n * n), odd=False).reshape(n, n)
        w = _complex_normal(rng, n)
        try:
            return sym, w, solve_dense(sym, w)
        except SingularMatrixError:
            continue
    raise RuntimeError("could not draw a nonsingular centro-symmetric matrix")


@_reduced
def unitary_suite(n_lo: int, n_hi: int) -> _Residuals:
    """Unitarity defects of the plain and twisted transform matrices."""
    for n in range(n_lo, n_hi + 1):
        pack = make_fourier_pack(n)
        for u in (pack.f_star, pack.h_star):
            yield "max_unitary_defect_over_n", _unitary_defect(u) / n, 1e-11


def run_suite(suite: str, n_lo: int, n_hi: int, seed: int) -> list[Metric]:
    """Run one named suite (or all of them), each on a fresh seeded generator."""
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}")
    metrics: list[Metric] = []
    if suite in ("relation", "all"):
        metrics += relation_suite(n_lo, n_hi, np.random.default_rng(seed))
    if suite in ("nilpotent", "all"):
        metrics += nilpotent_suite(n_lo, n_hi)
    if suite in ("centro", "all"):
        metrics += centro_suite(n_lo, n_hi, np.random.default_rng(seed))
    if suite in ("unitary", "all"):
        metrics += unitary_suite(n_lo, n_hi)
    return metrics
