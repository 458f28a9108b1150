"""Command-line front end.

Grammar::

    centrocirc show {r,pi,eta,exchange,fourier,h,shift} N [--format F]
    centrocirc spectrum {circ,scirc} C1,C2,...   [--format F] [--tol X]
    centrocirc spectrum {circ,scirc} [--format F] [--tol X] -- C1,C2,...
    centrocirc spectrum {r-even,r-odd} N         [--format F] [--tol X]
    centrocirc verify {relation,nilpotent,centro,unitary,all} LO..HI
                      [--seed N] [--format F] [--tol X]

A coefficient list whose first entry is negative must follow ``--``, or it
is read as an option.  A list holds at most 1024 coefficients.  Sizes,
ranges and the seed are written in the ASCII digits 0-9 only; a tolerance
or a coefficient is ASCII only and has no ``_``.

Formats: ``pretty`` (default), ``json``, ``csv``.  JSON reports follow the
schema ``{"command", "n", "status", "metrics": [{"name", "value", "bound"}],
"payload": {"rows", "cols", "entries": [[re, im], ...]}}``; verify reports
additionally carry ``"seed"`` and ``"n_range"``.  Complex numbers are
``[re, im]`` pairs in JSON and ``re+imi`` strings in CSV.

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
import os
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from .fourier import fourier_star_dense, make_fourier_pack, sigma_powers
from .circulant import (
    Circulant,
    SkewCirculant,
    basic_circulant,
    basic_skew_circulant,
    circ_dense,
    circ_spectrum,
    scirc_dense,
    scirc_spectrum,
)
from .centro import exchange_dense
from .relation import (
    SpecialTridiag,
    eta_minus_etat_coeffs,
    lower_shift_dense,
    pi_minus_pit_coeffs,
    r_dense,
)
from .verify import Metric, SUITE_NAMES, VERIFY_N_MAX, VERIFY_N_MIN, run_suite

SHOW_KINDS = ("r", "pi", "eta", "exchange", "fourier", "h", "shift")
SPECTRUM_KINDS = ("circ", "scirc", "r-even", "r-odd")
SHOW_N_MAX = 1024
# the text of the default --seed and --tol, read like any other argument
DEFAULT_SEED = "0"
DEFAULT_RESIDUAL_TOL = "1e-10"


class UsageError(ValueError):
    """Bad command-line arguments; maps to exit code 2."""


@dataclass(eq=False)
class CommandReport:
    command: str
    n: int
    status: str
    metrics: list[Metric] = field(default_factory=list)
    # the 2-D result: a shown matrix, or a spectrum as one column
    matrix: np.ndarray | None = None
    seed: int | None = None
    n_range: str | None = None

    def to_dict(self) -> dict:
        out: dict = {"command": self.command, "n": self.n}
        if self.n_range is not None:
            out["n_range"] = self.n_range
        if self.seed is not None:
            out["seed"] = self.seed
        out["status"] = self.status
        out["metrics"] = [
            {"name": m.name, "value": m.value, "bound": m.bound} for m in self.metrics
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


def _status(metrics: list[Metric]) -> str:
    return "pass" if all(m.ok for m in metrics) else "fail"


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
    match = re.fullmatch(r"([0-9]+)\.\.([0-9]+)", text)
    if not match:
        raise UsageError(f"range must look like 2..16, got {text!r}")
    lo, hi = (_parse_digits(bound, "range bound") for bound in match.groups())
    if lo > hi:
        raise UsageError(f"empty range {text!r}")
    if lo < VERIFY_N_MIN or hi > VERIFY_N_MAX:
        raise UsageError(
            f"range {text!r} outside the supported window "
            f"{VERIFY_N_MIN}..{VERIFY_N_MAX}"
        )
    return lo, hi


def cmd_show(kind: str, size_text: str) -> CommandReport:
    if kind not in SHOW_KINDS:
        raise UsageError(f"unknown matrix kind {kind!r}")
    n_min = 2 if kind in ("r", "pi", "eta") else 1
    n = _parse_size(size_text, n_min, SHOW_N_MAX)
    builders = {
        "r": lambda: r_dense(SpecialTridiag(n)),
        "pi": lambda: circ_dense(basic_circulant(n)),
        "eta": lambda: scirc_dense(basic_skew_circulant(n)),
        "exchange": lambda: exchange_dense(n),
        "fourier": lambda: fourier_star_dense(n),
        "h": lambda: make_fourier_pack(n).h_star,
        "shift": lambda: lower_shift_dense(n),
    }
    return CommandReport(
        command=f"show {kind}", n=n, status="pass",
        matrix=builders[kind](),
    )


def cmd_spectrum(kind: str, arg: str,
                 tol_text: str = DEFAULT_RESIDUAL_TOL) -> CommandReport:
    if kind not in SPECTRUM_KINDS:
        raise UsageError(f"unknown spectrum kind {kind!r}")
    tol = _parse_tol(tol_text)
    if kind == "circ":
        matrix = Circulant(_parse_coeffs(arg))
    elif kind == "scirc":
        matrix = SkewCirculant(_parse_coeffs(arg))
    elif kind == "r-even":
        matrix = pi_minus_pit_coeffs(_parse_size(arg, 2, SHOW_N_MAX))
    else:
        matrix = eta_minus_etat_coeffs(_parse_size(arg, 2, SHOW_N_MAX))
    n = matrix.n
    # column k of F* (circulant) or H* (skew) is a unit eigenvector with the
    # defining sum sqrt(n) * (c . column k) as eigenvalue; checking the FFT
    # values against it is O(n^2) and equals ||A v_k - lambda_k v_k||.  For
    # the skew kinds c . H*_k = (sigma o c) . F*_k, so the twist goes on c
    with np.errstate(over="ignore", invalid="ignore"):
        # finite input can still overflow here; that is rejected just below
        coeff_norm = float(np.linalg.norm(matrix.coeffs))
        if isinstance(matrix, Circulant):
            values, row = circ_spectrum(matrix), matrix.coeffs
        else:
            values, row = scirc_spectrum(matrix), matrix.coeffs * sigma_powers(n)
    if not np.all(np.isfinite(values)):
        raise UsageError("the spectrum of these coefficients overflows")
    bound = tol * n * max(coeff_norm, 1.0)
    if not np.isfinite(bound):
        raise UsageError(f"the residual bound overflows (tolerance {tol!r}, n = {n}, "
                         f"coefficient norm {coeff_norm!r})")
    residual = np.sqrt(n) * (row @ fourier_star_dense(n)) - values
    metrics = [Metric("max_eigenpair_residual", float(np.max(np.abs(residual))), bound)]
    return CommandReport(
        command=f"spectrum {kind}", n=n, status=_status(metrics),
        metrics=metrics, matrix=values[:, None],
    )


def cmd_verify(suite: str, range_text: str, seed_text: str = DEFAULT_SEED,
               tol_text: str = DEFAULT_RESIDUAL_TOL) -> CommandReport:
    if suite not in SUITE_NAMES:
        raise UsageError(f"unknown suite {suite!r}")
    lo, hi = _parse_range(range_text)
    seed = _parse_digits(seed_text, "seed")
    metrics = run_suite(suite, lo, hi, seed, relation_tol=_parse_tol(tol_text))
    return CommandReport(
        command=f"verify {suite}", n=hi, status=_status(metrics),
        metrics=metrics, seed=seed, n_range=f"{lo}..{hi}",
    )


def render_report(report: CommandReport, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2)
    if fmt == "csv":
        return _render_csv(report)
    return _render_pretty(report)


def _render_csv(report: CommandReport) -> str:
    lines = [f"command,{report.command}", f"n,{report.n}"]
    if report.n_range is not None:
        lines.append(f"n_range,{report.n_range}")
    if report.seed is not None:
        lines.append(f"seed,{report.seed}")
    lines.append(f"status,{report.status}")
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
    # spectrum and verify bound a residual; show has none to bound
    tolerant = argparse.ArgumentParser(add_help=False)
    tolerant.add_argument("--tol", default=DEFAULT_RESIDUAL_TOL,
                          help="residual tolerance for spectrum/relation checks")

    sub = parser.add_subparsers(dest="command", required=True)

    show = sub.add_parser("show", parents=[common],
                          help="print a named matrix densely")
    show.add_argument("kind", choices=SHOW_KINDS)
    show.add_argument("n", help="matrix size")

    spectrum = sub.add_parser("spectrum", parents=[common, tolerant],
                              help="print eigenvalues with residual metrics")
    spectrum.add_argument("kind", choices=SPECTRUM_KINDS)
    spectrum.add_argument("arg", help="comma-separated coefficients, or a size; "
                                      "a list starting with '-' must follow '--'")

    verify = sub.add_parser("verify", parents=[common, tolerant],
                            help="run a seeded invariant suite over a size range")
    verify.add_argument("suite", choices=SUITE_NAMES)
    verify.add_argument("range", help="size range like 2..16")
    verify.add_argument("--seed", default=DEFAULT_SEED,
                        help="seed for the PCG64 generator")
    return parser


def _run(argv) -> tuple[str | None, int]:
    """The rendered report (None when there is none) and the exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return None, 2 if exc.code is None else int(exc.code)
    try:
        if args.command == "show":
            report = cmd_show(args.kind, args.n)
        elif args.command == "spectrum":
            report = cmd_spectrum(args.kind, args.arg, args.tol)
        else:
            report = cmd_verify(args.suite, args.range, args.seed, args.tol)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, 2
    return render_report(report, args.format), 0 if report.status == "pass" else 1


def main(argv=None) -> int:
    text, code = _run(argv)
    if text is not None:
        print(text)
    return code


def entry_point() -> None:
    text, code = _run(None)
    try:
        if text is not None:
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: point it at devnull so the flush at
        # shutdown cannot raise again, then exit with the report's own code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)
