"""Seeded invariant suites behind the ``verify`` command.

Each suite walks a size range, draws reproducible random instances from a
PCG64 generator, measures the worst violation it sees and reports it as a
(name, value, bound) metric.  A run passes when every metric value stays
within its bound.  Identical seed means identical draws, so repeated runs
produce identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import SingularMatrixError, _unitary_defect, solve_dense
from .fourier import make_fourier_pack
from .centro import (
    block_form,
    centro_split,
    even_odd_split,
    solve_centro_symmetric,
)
from .relation import (
    SpecialTridiag,
    _apply_defects,
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


def _complex_rows(draws: np.ndarray, n: int) -> np.ndarray:
    # the first 2n normals of each row as one complex n-vector: the same
    # numbers, in the same order, as one _complex_normal(rng, n) per row
    return draws[:, :n] + 1j * draws[:, n:2 * n]


def _norms(x: np.ndarray) -> np.ndarray:
    # 2-norm of each vector of a stack
    return np.linalg.norm(x, axis=-1)


def _fro_norms(x: np.ndarray) -> np.ndarray:
    # Frobenius norm of each matrix of a stack
    return np.linalg.norm(x, axis=(-2, -1))


def _matvecs(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    # a[i] @ x[i] for each matrix-vector pair of two stacks
    return (a @ x[..., None])[..., 0]


def relation_suite(n_lo: int, n_hi: int, rng: np.random.Generator,
                   tol: float = 1e-10, samples: int = RELATION_SAMPLES) -> list[Metric]:
    """R_n applied directly vs through its even/odd circulant restrictions.

    Each n is one stacked computation over the two ramps and the samples;
    the defects are applied in their rank-one form.
    """
    worst_relation = 0.0
    worst_defect = 0.0
    for n in range(n_lo, n_hi + 1):
        r = SpecialTridiag(n)
        x = np.vstack([ramp_even(n), ramp_odd(n),
                       _complex_rows(rng.standard_normal((samples, 2 * n)), n)])
        scale = n * np.maximum(_norms(x), 1e-300)
        diff = _norms(r_apply(r, x) - r_apply_via_relation(r, x))
        worst_relation = max(worst_relation, float(np.max(diff / scale)))
        split = even_odd_split(x)
        d_plus_even, d_minus_odd = _apply_defects(split.even, split.odd)
        defect = _norms(d_plus_even) + _norms(d_minus_odd)
        worst_defect = max(worst_defect, float(np.max(defect / scale)))
    return [
        Metric("max_relation_residual_over_n_normx", worst_relation, tol),
        Metric("max_defect_on_projected_parts", worst_defect, 1e-12),
    ]


def nilpotent_suite(n_lo: int, n_hi: int, tol_nilp: float = 1e-8) -> list[Metric]:
    """Power norms of the scaled operator, plus sign-pattern preservation."""
    metrics = []
    mismatches = 0
    for n in range(n_lo, n_hi + 1):
        scaled = nilpotent_realization(n)
        power_norm, bound = _nilpotency_residual(scaled, tol_nilp)
        metrics.append(Metric(f"nilpotent_power_norm_n{n}", power_norm, bound))
        pattern = sign_pattern_of(r_dense(SpecialTridiag(n)))
        if not has_sign_pattern(scaled, pattern):
            mismatches += 1
    metrics.append(Metric("sign_pattern_mismatch_count", float(mismatches), 0.0))
    return metrics


def _chunks(samples: int, n: int):
    # sample counts whose (k, n, n) stacks stay within the entry budget
    k = max(1, CENTRO_CHUNK_ENTRIES // (n * n))
    for start in range(0, samples, k):
        yield min(k, samples - start)


def centro_suite(n_lo: int, n_hi: int, rng: np.random.Generator,
                 roundoff: float = 1e-12, solve_tol: float = 1e-8,
                 samples: int = CENTRO_SAMPLES) -> list[Metric]:
    """Projection algebra, the centro multiplication table, block structure
    and the half-size solver against the full LU.

    The samples of each n are evaluated as stacks, a chunk at a time.  A
    sample is one row of 2n + 4n^2 normals, x_re | x_im | A_re | A_im |
    B_re | B_im, which is the order of one vector and two matrix draws.
    """
    worst_projection = 0.0
    worst_table = 0.0
    worst_parity = 0.0
    worst_blocks = 0.0
    worst_decomp = 0.0
    worst_solve = 0.0
    for n in range(n_lo, n_hi + 1):
        for k in _chunks(samples, n):
            draws = rng.standard_normal((k, 2 * n + 4 * n * n))
            x = _complex_rows(draws, n)
            split = even_odd_split(x)
            scale = np.maximum(_norms(x), 1e-300)
            # E+ + E- = I, projections idempotent and orthogonal
            of_even = even_odd_split(split.even)
            of_odd = even_odd_split(split.odd)
            residual = _norms(split.even + split.odd - x)
            residual += _norms(of_even.even - split.even)
            residual += _norms(of_even.odd)
            residual += _norms(of_odd.odd - split.odd)
            residual += _norms(of_odd.even)
            worst_projection = max(worst_projection, float(np.max(residual / scale)))

            mats = draws[:, 2 * n:].reshape(k, 4, n, n)
            parts = centro_split(mats[:, 0] + 1j * mats[:, 1])
            other = centro_split(mats[:, 2] + 1j * mats[:, 3])
            sym_norm = _fro_norms(parts.sym)
            skew_norm = _fro_norms(parts.skew)
            parts_norm = np.maximum(sym_norm + skew_norm, 1e-300)
            other_norm = _fro_norms(other.sym) + _fro_norms(other.skew)
            mscale = parts_norm * np.maximum(other_norm, 1e-300)
            table = _fro_norms(centro_split(parts.sym @ other.sym).skew)
            table += _fro_norms(centro_split(parts.sym @ other.skew).sym)
            table += _fro_norms(centro_split(parts.skew @ other.sym).sym)
            table += _fro_norms(centro_split(parts.skew @ other.skew).skew)
            worst_table = max(worst_table, float(np.max(table / mscale)))

            sym_scale = np.maximum(sym_norm, 1e-300) * scale
            skew_scale = np.maximum(skew_norm, 1e-300) * scale
            parity = (
                _norms(even_odd_split(_matvecs(parts.sym, split.even)).odd)
                + _norms(even_odd_split(_matvecs(parts.sym, split.odd)).even)
            ) / sym_scale
            parity = np.maximum(parity, (
                _norms(even_odd_split(_matvecs(parts.skew, split.even)).even)
                + _norms(even_odd_split(_matvecs(parts.skew, split.odd)).odd)
            ) / skew_scale)
            worst_parity = max(worst_parity, float(np.max(parity)))

            # centro-symmetric: off-diagonal blocks vanish; centro-skew: diagonal
            _, b12, b21, _ = block_form(parts.sym)
            blocks = _fro_norms(b12) + _fro_norms(b21)
            k11, _, _, k22 = block_form(parts.skew)
            blocks += _fro_norms(k11) + _fro_norms(k22)
            worst_blocks = max(worst_blocks, float(np.max(blocks / parts_norm)))

            # K z = w iff K E+ z = E- w and K E- z = E+ w
            wsplit = even_odd_split(_matvecs(parts.skew, x))
            kscale = np.maximum(skew_norm, 1e-300) * scale
            decomp = _norms(_matvecs(parts.skew, split.even) - wsplit.odd)
            decomp += _norms(_matvecs(parts.skew, split.odd) - wsplit.even)
            worst_decomp = max(worst_decomp, float(np.max(decomp / kscale)))

        sym = _random_nonsingular_sym(rng, n)
        w = _complex_normal(rng, n)
        z_full = solve_dense(sym, w)
        z_half = solve_centro_symmetric(sym, w)
        worst_solve = max(
            worst_solve,
            float(np.linalg.norm(z_half - z_full)) / (1.0 + float(np.linalg.norm(z_full))),
        )
    return [
        Metric("max_projection_residual", worst_projection, roundoff),
        Metric("max_multiplication_table_residual", worst_table, roundoff * 10),
        Metric("max_action_parity_residual", worst_parity, roundoff),
        Metric("max_block_structure_residual", worst_blocks, roundoff),
        Metric("max_solution_decomposition_residual", worst_decomp, roundoff),
        Metric("max_half_vs_full_solve_difference", worst_solve, solve_tol),
    ]


def _random_nonsingular_sym(rng: np.random.Generator, n: int) -> np.ndarray:
    # the sym part of a Gaussian draw is almost surely fine; retry to be safe
    for _ in range(64):
        candidate = centro_split(_complex_normal(rng, (n, n))).sym
        try:
            solve_dense(candidate, np.ones(n, dtype=np.complex128))
        except SingularMatrixError:
            continue
        return candidate
    raise RuntimeError("could not draw a nonsingular centro-symmetric matrix")


def unitary_suite(n_lo: int, n_hi: int, tol: float = 1e-11) -> list[Metric]:
    """Unitarity defects of the plain and twisted transform matrices."""
    worst = 0.0
    for n in range(n_lo, n_hi + 1):
        pack = make_fourier_pack(n)
        for u in (pack.f_star, pack.h_star):
            worst = max(worst, _unitary_defect(u) / n)
    return [Metric("max_unitary_defect_over_n", worst, tol)]


def run_suite(suite: str, n_lo: int, n_hi: int, seed: int,
              relation_tol: float = 1e-10) -> list[Metric]:
    """Run one named suite (or all of them), each on a fresh seeded generator."""
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}")
    metrics: list[Metric] = []
    if suite in ("relation", "all"):
        metrics += relation_suite(n_lo, n_hi, np.random.default_rng(seed),
                                  tol=relation_tol)
    if suite in ("nilpotent", "all"):
        metrics += nilpotent_suite(n_lo, n_hi)
    if suite in ("centro", "all"):
        metrics += centro_suite(n_lo, n_hi, np.random.default_rng(seed))
    if suite in ("unitary", "all"):
        metrics += unitary_suite(n_lo, n_hi)
    return metrics
