"""Seeded request lists for the three benchmark workloads.

A request is one call into a public entry point: ``centrocirc.cli.main``
with an argv list, or a library function with arrays.  Arguments of
library calls are built from a per-request seed just before the call and
outside its timed interval, so large vectors are not all held at once.
The same workload seed always gives the same list.

Why these workloads:

* ``verify_sweep``: every ``verify`` suite at every size the CLI accepts,
  one size per request.  Thousands of small-vector calls make Python call
  overhead in verify, centro, relation, circulant and dense dominate; the
  reports are a few hundred bytes, so rendering barely registers.
* ``show_render``: every ``show`` kind in all three formats over a spread
  of odd and even sizes.  Building the O(n^2) payload and formatting it in
  Python inside cli dominates; the numerical layers only build dense
  matrices.  Two thirds of the requests repeat a dense build.  It runs
  from ``run.py`` but is not in ``BENCHMARK.json``: three workloads do not
  fit the run budget at the 60 s runs a steady ``verify_sweep`` needs.
* ``structured_large``: few calls with O(n log n) to O(n^3) kernel work
  each (FFT, Horner loops, dense products, LU) in the same centro,
  relation and circulant functions that ``verify_sweep`` calls on small
  inputs.  Matvec lengths 2^16 and 2^18 sit on both sides of a 2 MiB L2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles

VERIFY_SUITES = ("relation", "nilpotent", "centro", "unitary")
VERIFY_SIZES = range(2, 65)

SHOW_KINDS = ("r", "pi", "eta", "exchange", "fourier", "h", "shift")
SHOW_FORMATS = ("json", "csv", "pretty")
# Half of these become odd (n + 1), chosen by the seed.  Sizes stay well
# below the CLI's 1024 so that no single request dominates a pass.
SHOW_SIZES = (8, 24, 48, 96, 128, 160)

R_SPECTRUM_SIZES = (512, 1024)
COEFF_SPECTRUM_SIZES = (3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377)
MATVEC_FUNCS = ("relation.r_apply", "relation.r_apply_via_relation",
                "circulant.circ_matvec", "circulant.scirc_matvec")
MATVEC_SIZES = (1 << 16, 1 << 18, 3 ** 11)
MATVEC_VECTORS = 6
SOLVE_SIZES = (320, 481, 640, 799)
RESTRICTION_SIZES = (256, 512, 1024)


@dataclass(frozen=True)
class Request:
    """One call: ``argv`` for the CLI, or ``func`` with ``inputs()`` args.

    ``check(args, result)`` returns None when the output is correct and a
    reason otherwise.  ``key`` names the dense build or operator the
    request uses; a key seen earlier in the list marks a repeat.
    """

    key: tuple
    check: Callable
    argv: tuple[str, ...] | None = None
    func: str | None = None
    inputs: Callable[[], tuple] | None = None
    label: str = ""

    def signature(self) -> str:
        return repr(self.argv) if self.argv is not None else self.label


def _cli(key, argv, check) -> Request:
    return Request(key=key, argv=tuple(argv), check=lambda args, result: check(result))


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2 ** 31))


def verify_sweep(rng: np.random.Generator) -> list[Request]:
    requests = []
    for suite in VERIFY_SUITES:
        for n in VERIFY_SIZES:
            seed = _draw_seed(rng)
            argv = ("verify", suite, f"{n}..{n}", "--seed", str(seed))
            requests.append(_cli((suite, n), argv,
                                 functools.partial(oracles.check_verify, suite, n, seed)))
    return requests


def show_render(rng: np.random.Generator) -> list[Request]:
    odd = rng.permutation(len(SHOW_SIZES)) < len(SHOW_SIZES) // 2
    requests = []
    for n in (size + int(bump) for size, bump in zip(SHOW_SIZES, odd)):
        for kind in SHOW_KINDS:
            for fmt in SHOW_FORMATS:
                argv = ("show", kind, str(n), "--format", fmt)
                requests.append(_cli(("show", kind, n), argv,
                                     functools.partial(oracles.check_show, kind, n, fmt)))
    return requests


def _coefficients(rng: np.random.Generator, n: int) -> str:
    # The leading coefficient is always negative, so the list must follow
    # "--" or argparse reads it as an option.
    coeffs = rng.standard_normal(n)
    coeffs[0] = -0.5 - abs(coeffs[0])
    return ",".join(f"{c:.4f}" for c in coeffs)


def _check_coeff_spectrum(kind, text, result):
    coeffs = np.array([float(t) for t in text.split(",")], dtype=np.complex128)
    return oracles.check_spectrum(oracles.coeff_spectrum(kind, coeffs), result)


def _matvec_inputs(func: str, n: int, operator_seed: int, vector_seed: int) -> tuple:
    import centrocirc

    x = _complex_normal(np.random.default_rng(vector_seed), n)
    if func.startswith("relation."):
        return centrocirc.SpecialTridiag(n), x
    row = np.random.default_rng(operator_seed).standard_normal(n)
    kind = centrocirc.Circulant if func == "circulant.circ_matvec" else centrocirc.SkewCirculant
    return kind(row), x


def _check_matvec(func: str, args, y):
    operator, x = args
    if func.startswith("relation."):
        reference = oracles.stencil(x)
    elif func == "circulant.circ_matvec":
        reference = oracles.row_circulant_apply(operator.coeffs, x)
    else:
        reference = oracles.skew_circulant_apply(operator.coeffs, x)
    return oracles.check_matvec(reference, y)


def _solve_inputs(n: int, seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    m = _complex_normal(rng, (n, n))
    return (m + m[::-1, ::-1]) / 2, _complex_normal(rng, n)


def structured_large(rng: np.random.Generator) -> list[Request]:
    requests = []
    for kind in ("r-even", "r-odd"):
        for n in R_SPECTRUM_SIZES:
            argv = ("spectrum", kind, str(n), "--format", "json")
            requests.append(_cli((kind, n), argv, functools.partial(
                oracles.check_spectrum, oracles.r_spectrum(kind, n))))
    for kind in ("circ", "scirc"):
        for n in COEFF_SPECTRUM_SIZES:
            text = _coefficients(rng, n)
            argv = ("spectrum", kind, "--format", "json", "--", text)
            requests.append(_cli((kind, n), argv,
                                 functools.partial(_check_coeff_spectrum, kind, text)))
    for func in MATVEC_FUNCS:
        for n in MATVEC_SIZES:
            operator_seed = _draw_seed(rng)
            for _ in range(MATVEC_VECTORS):
                vector_seed = _draw_seed(rng)
                requests.append(Request(
                    key=(func, n), func=func,
                    inputs=functools.partial(_matvec_inputs, func, n, operator_seed,
                                             vector_seed),
                    check=functools.partial(_check_matvec, func),
                    label=f"{func} n={n} operator={operator_seed} x={vector_seed}"))
    for n in SOLVE_SIZES:
        seed = _draw_seed(rng)
        requests.append(Request(
            key=("solve", n), func="centro.solve_centro_symmetric",
            inputs=functools.partial(_solve_inputs, n, seed),
            check=lambda args, z: oracles.check_solve(args[0], args[1], z),
            label=f"centro.solve_centro_symmetric n={n} seed={seed}"))
    for n in RESTRICTION_SIZES:
        requests.append(Request(
            key=("restriction", n), func="relation.restriction_spectra",
            inputs=lambda n=n: (n,),
            check=lambda args, result: oracles.check_restriction_spectra(args[0], result),
            label=f"relation.restriction_spectra n={n}"))
    return requests


BUILDERS = {"verify_sweep": verify_sweep, "show_render": show_render,
            "structured_large": structured_large}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, seed: int) -> list[Request]:
    """The workload's request list for ``seed``.

    The seed draws the data; the order is one fixed interleaving per
    workload, so that peak memory and warm-up effects do not vary with it.
    """
    index = WORKLOADS.index(workload)
    requests = BUILDERS[workload](np.random.default_rng([index, seed]))
    order = np.random.default_rng(index).permutation(len(requests))
    return [requests[k] for k in order]


def repeat_share(requests: list[Request]) -> float:
    """Share of requests whose key already appeared earlier in the list."""
    return 1.0 - len({r.key for r in requests}) / len(requests)
