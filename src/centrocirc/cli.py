"""Command-line front end.

``centrocirc`` and ``python -m centrocirc`` both run ``main``, which prints
the report and returns the exit code.  Grammar::

    centrocirc show {r,pi,eta,exchange,fourier,h,shift} N [--format F]
    centrocirc spectrum {circ,scirc} C1,C2,...   [--format F] [--tol X]
    centrocirc spectrum {circ,scirc} [--format F] [--tol X] -- C1,C2,...
    centrocirc spectrum {r-even,r-odd} N         [--format F] [--tol X]
    centrocirc verify {relation,nilpotent,centro,unitary,all} LO..HI
                      [--seed N] [--format F]

A coefficient list whose first entry is negative must follow ``--``, or it
is read as an option.  A list holds at most 1024 coefficients.  Sizes,
ranges and the seed are written in the ASCII digits 0-9 only; a tolerance
or a coefficient is ASCII only and has no ``_``.

Formats: ``pretty`` (default), ``json``, ``csv``.  JSON reports have the keys
``command, n, n_range, seed, status, metrics, payload`` in that order, with
``metrics`` a list of ``{"name", "value", "bound"}`` and ``payload``
``{"rows", "cols", "entries": [[re, im], ...]}``; only verify reports carry
``n_range`` and ``seed``, and only show and spectrum reports a ``payload``.
CSV reports lead with the same fields, in the same order, as ``key,value``
lines.  A report's status is pass exactly when every metric is within its
bound, so a report with no metrics passes; a metric value that is not
finite is written as ``null`` and fails.  Complex numbers are ``[re, im]``
pairs in JSON and ``re+imi`` strings in CSV.

A spectrum's metric is ``max_k |sqrt(n) * (c . v_k) - lambda_k|`` over the unit
eigenvectors v_k (columns of F* or H*), which equals the eigenpair residual
``max_k ||A v_k - lambda_k v_k||``.  Since ``c . H*_k = (sigma o c) . F*_k``,
the skew kinds put the sigma twist on the coefficients, so every kind makes
one O(n^2) product with the columns of F*, independent of the FFT.

Exit codes: 0 when the report status is pass, 1 on a verification failure,
2 on a usage error (a negative seed, or a spectrum whose residual bound or
eigenvalues overflow, is one).  Randomness comes only from the seeded PCG64 generator,
so identical command lines print identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from .fourier import fourier_star_dense, make_fourier_pack
from .circulant import (
    Circulant,
    SkewCirculant,
    _circulant_form,
    basic_circulant,
    basic_skew_circulant,
    circ_dense,
    scirc_dense,
)
from .centro import exchange_dense
from .dense import _norm
from .relation import (
    SpecialTridiag,
    eta_minus_etat_coeffs,
    lower_shift_dense,
    pi_minus_pit_coeffs,
    r_dense,
)
from .verify import Metric, SUITE_NAMES, VERIFY_N_MAX, VERIFY_N_MIN, run_suite

# each lambda looks its function up per call: a wrapper patched into this module sees it
_SHOW = {
    "r": (2, lambda n: r_dense(SpecialTridiag(n))),
    "pi": (2, lambda n: circ_dense(basic_circulant(n))),
    "eta": (2, lambda n: scirc_dense(basic_skew_circulant(n))),
    "exchange": (1, lambda n: exchange_dense(n)),
    "fourier": (1, lambda n: fourier_star_dense(n)),
    "h": (1, lambda n: make_fourier_pack(n).h_star),
    "shift": (1, lambda n: lower_shift_dense(n)),
}
_SPECTRUM = {
    "circ": lambda arg: Circulant(_parse_coeffs(arg)),
    "scirc": lambda arg: SkewCirculant(_parse_coeffs(arg)),
    "r-even": lambda arg: pi_minus_pit_coeffs(_parse_size(arg, 2, SHOW_N_MAX)),
    "r-odd": lambda arg: eta_minus_etat_coeffs(_parse_size(arg, 2, SHOW_N_MAX)),
}
SHOW_KINDS = tuple(_SHOW)
SPECTRUM_KINDS = tuple(_SPECTRUM)
SHOW_N_MAX = 1024
# the text of the default --seed and spectrum --tol, read like any other argument
DEFAULT_SEED = "0"
DEFAULT_RESIDUAL_TOL = "1e-10"


class UsageError(ValueError):
    """Bad command-line arguments; maps to exit code 2."""


# the leading fields of a JSON or CSV report, in order; a None one is left out
_HEADER_FIELDS = ("command", "n", "n_range", "seed", "status")


@dataclass(eq=False)
class CommandReport:
    command: str
    n: int
    metrics: list[Metric] = field(default_factory=list)
    # the 2-D result: a shown matrix, or a spectrum as one column
    matrix: np.ndarray | None = None
    seed: int | None = None
    n_range: str | None = None

    @property
    def status(self) -> str:
        # every metric within its bound (a NaN value is not); no metrics pass
        return "pass" if all(m.ok for m in self.metrics) else "fail"

    def _header(self) -> list[tuple[str, object]]:
        return [(key, value) for key in _HEADER_FIELDS
                if (value := getattr(self, key)) is not None]

    def to_dict(self) -> dict:
        out = dict(self._header())
        # a NaN or infinite value (only a library defect makes one) is null:
        # the JSON stays standard, and the metric still fails its bound
        out["metrics"] = [
            {"name": m.name, "value": m.value if math.isfinite(m.value) else None,
             "bound": m.bound}
            for m in self.metrics
        ]
        if self.matrix is not None:
            m = self.matrix
            out["payload"] = {
                "rows": m.shape[0], "cols": m.shape[1],
                "entries": np.stack((m.real, m.imag), -1).reshape(-1, 2).tolist(),
            }
        return out


def format_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}i"


def _require_ascii(text: str, what: str) -> None:
    # float() and complex() also take "1_0" and other scripts' digits
    if not text.isascii() or "_" in text:
        raise UsageError(f"{what} must be written in ASCII without '_', got {text!r}")


def _parse_scalar(token: str) -> complex:
    _require_ascii(token, "coefficient")
    # rewrite only a trailing imaginary unit: "inf" must reach the finiteness check
    text = token.strip()
    if text.endswith("i"):
        text = text[:-1] + "j"
    try:
        return complex(text)
    except ValueError:
        raise UsageError(f"cannot parse coefficient {token!r}")


def _parse_coeffs(text: str) -> np.ndarray:
    # every token counts: an empty one ("1,,2" or a trailing comma) is an error
    if not text.strip():
        raise UsageError("empty coefficient list")
    tokens = text.split(",")
    # n coefficients cost an n x n matrix of eigenvectors
    if len(tokens) > SHOW_N_MAX:
        raise UsageError(f"at most {SHOW_N_MAX} coefficients, got {len(tokens)}")
    coeffs = np.array([_parse_scalar(t) for t in tokens], dtype=np.complex128)
    if not np.all(np.isfinite(coeffs)):
        raise UsageError(f"coefficients must be finite, got {text!r}")
    return coeffs


def _parse_tol(text: str) -> float:
    _require_ascii(text, "tolerance")
    try:
        tol = float(text)
    except ValueError:
        raise UsageError(f"cannot parse tolerance {text!r}")
    if not (np.isfinite(tol) and tol >= 0):
        raise UsageError(f"tolerance must be finite and nonnegative, got {tol!r}")
    return tol


def _parse_digits(text: str, what: str) -> int:
    # ASCII digits only: int() also takes "1_0", " 10" and other scripts'
    # digits, and raises ValueError past 4300 digits
    if not re.fullmatch(r"[0-9]+", text):
        raise UsageError(f"{what} must be written in the digits 0-9, got {text!r}")
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{what} has {len(text)} digits, too many to read")


def _parse_size(text: str, lo: int, hi: int) -> int:
    n = _parse_digits(text, "size")
    if not lo <= n <= hi:
        raise UsageError(f"size {n} outside the supported range {lo}..{hi}")
    return n


def _parse_range(text: str) -> tuple[int, int]:
    bounds = text.split("..")
    if len(bounds) != 2:
        raise UsageError(f"range must look like 2..16, got {text!r}")
    lo, hi = (_parse_size(bound, VERIFY_N_MIN, VERIFY_N_MAX) for bound in bounds)
    if lo > hi:
        raise UsageError(f"empty range {text!r}")
    return lo, hi


def cmd_show(kind: str, size_text: str) -> CommandReport:
    least, build = _SHOW[kind]
    n = _parse_size(size_text, least, SHOW_N_MAX)
    return CommandReport(command=f"show {kind}", n=n, matrix=build(n))


def cmd_spectrum(kind: str, arg: str, tol_text: str) -> CommandReport:
    tol = _parse_tol(tol_text)
    matrix = _SPECTRUM[kind](arg)
    n = matrix.n
    # column k of F* (circulant) or H* (skew) is a unit eigenvector with the
    # defining sum sqrt(n) * (c . column k) as eigenvalue; checking the FFT
    # values against it is O(n^2) and equals ||A v_k - lambda_k v_k||.  For
    # the skew kinds c . H*_k = (sigma o c) . F*_k, so the twist goes on c
    coeff_norm = _norm(matrix.coeffs)
    with np.errstate(over="ignore", invalid="ignore"):
        # finite input can still overflow here; that is rejected just below
        # circ_spectrum or scirc_spectrum, with the twist formed once
        _, row, values = _circulant_form(matrix)
    if not np.all(np.isfinite(values)):
        raise UsageError("the spectrum of these coefficients overflows")
    bound = tol * n * max(coeff_norm, 1.0)
    if not np.isfinite(bound):
        raise UsageError(f"the residual bound overflows (tolerance {tol!r}, n = {n}, "
                         f"coefficient norm {coeff_norm!r})")
    residual = np.sqrt(n) * (row @ fourier_star_dense(n)) - values
    return CommandReport(
        command=f"spectrum {kind}", n=n,
        metrics=[Metric("max_eigenpair_residual", float(np.max(np.abs(residual))), bound)],
        matrix=values[:, None],
    )


def cmd_verify(suite: str, range_text: str, seed_text: str) -> CommandReport:
    lo, hi = _parse_range(range_text)
    seed = _parse_digits(seed_text, "seed")
    return CommandReport(
        command=f"verify {suite}", n=hi,
        metrics=run_suite(suite, lo, hi, seed),
        seed=seed, n_range=f"{lo}..{hi}",
    )


def render_report(report: CommandReport, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2)
    if fmt == "csv":
        return _render_csv(report)
    return _render_pretty(report)


def _render_csv(report: CommandReport) -> str:
    lines = [f"{key},{value}" for key, value in report._header()]
    for m in report.metrics:
        lines.append(f"metric,{m.name},{m.value!r},{m.bound!r}")
    if report.matrix is not None:
        rows, cols = report.matrix.shape
        lines.append(f"payload,{rows},{cols}")
        for row in report.matrix.tolist():
            lines.append(",".join(format_complex(z) for z in row))
    return "\n".join(lines)


def _render_pretty(report: CommandReport) -> str:
    lines = [f"{report.command}  (n = {report.n})"]
    if report.n_range is not None:
        lines[0] = f"{report.command}  (n = {report.n_range}, seed = {report.seed})"
    lines.append(f"status: {report.status}")
    for m in report.metrics:
        verdict = "ok" if m.ok else "VIOLATED"
        lines.append(f"  {m.name} = {m.value:.6e}  (bound {m.bound:.6e}, {verdict})")
    if report.matrix is not None:
        cells = [[_pretty_cell(z) for z in row] for row in report.matrix.tolist()]
        width = max(len(c) for row in cells for c in row)
        for row in cells:
            lines.append("  " + "  ".join(c.rjust(width) for c in row))
    return "\n".join(lines)


def _pretty_cell(z: complex) -> str:
    if z.imag == 0:
        return f"{z.real:.6g}"
    return f"{z.real:.6g}{z.imag:+.6g}i"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first call, not at import, and reused: parse_args keeps
    # no state between calls
    parser = argparse.ArgumentParser(
        prog="centrocirc",
        description="Structured-matrix toolkit: build, diagonalize and verify "
                    "circulants, skew-circulants and the tridiagonal operator "
                    "they decompose.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("pretty", "json", "csv"),
                        default="pretty", help="output format")
    sub = parser.add_subparsers(dest="command", required=True)

    show = sub.add_parser("show", parents=[common],
                          help="print a named matrix densely")
    show.add_argument("kind", choices=SHOW_KINDS)
    show.add_argument("n", help="matrix size")

    spectrum = sub.add_parser("spectrum", parents=[common],
                              help="print eigenvalues with residual metrics")
    # verify takes no --tol: its exact checks are bounded by 0
    spectrum.add_argument("--tol", default=DEFAULT_RESIDUAL_TOL,
                          help="residual tolerance for the eigenpair check")
    spectrum.add_argument("kind", choices=SPECTRUM_KINDS)
    spectrum.add_argument("arg", help="comma-separated coefficients, or a size; "
                                      "a list starting with '-' must follow '--'")

    verify = sub.add_parser("verify", parents=[common],
                            help="run a seeded invariant suite over a size range")
    verify.add_argument("suite", choices=SUITE_NAMES)
    verify.add_argument("range", help="size range like 2..16")
    verify.add_argument("--seed", default=DEFAULT_SEED,
                        help="seed for the PCG64 generator")
    return parser


def main(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` when argv is None), print its
    report and return the exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code is None else int(exc.code)
    try:
        if args.command == "show":
            report = cmd_show(args.kind, args.n)
        elif args.command == "spectrum":
            report = cmd_spectrum(args.kind, args.arg, args.tol)
        else:
            report = cmd_verify(args.suite, args.range, args.seed)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = render_report(report, args.format)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: point it at devnull so the flush at
        # shutdown cannot raise again, then exit with the report's own code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if report.status == "pass" else 1
