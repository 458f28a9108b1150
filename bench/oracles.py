"""Output checks for benchmark requests, written without the package.

Every check takes the raw output of one request and returns ``None`` when
it is correct, or a one-line reason when it is not.  The reference values
come from the matrix definitions and closed forms, computed here with plain
numpy; nothing is imported from ``centrocirc``.
"""

from __future__ import annotations

import json

import numpy as np

# Absolute entry tolerance per output format: JSON carries full floats, CSV
# prints 12 significant digits and the pretty table 6.
FORMAT_TOL = {"json": 1e-12, "csv": 1e-10, "pretty": 1e-5}
SPECTRUM_TOL = 1e-9
MATVEC_REL_TOL = 1e-9
SOLVE_REL_TOL = 1e-10

VERIFY_METRICS = {
    "relation": ("max_relation_residual_over_n_normx",
                 "max_defect_on_projected_parts"),
    "nilpotent": ("nilpotent_power_norm_n{n}", "sign_pattern_mismatch_count"),
    "centro": ("max_projection_residual", "max_multiplication_table_residual",
               "max_action_parity_residual", "max_block_structure_residual",
               "max_solution_decomposition_residual",
               "max_half_vs_full_solve_difference"),
    "unitary": ("max_unitary_defect_over_n",),
}


# ---------------------------------------------------------------- references

def show_matrix(kind: str, n: int) -> np.ndarray:
    """The named matrix from its definition."""
    j = np.arange(n)
    out = np.zeros((n, n), dtype=np.complex128)
    if kind == "r":
        out[j[1:], j[:-1]] = -1
        out[j[:-1], j[1:]] = 1
        out[0, 0], out[-1, -1] = -1, 1
    elif kind == "pi":
        out[j, (j + 1) % n] = 1
    elif kind == "eta":
        out[j[:-1], j[1:]] = 1
        out[n - 1, 0] = -1
    elif kind == "exchange":
        out[j, n - 1 - j] = 1
    elif kind == "shift":
        out[j[1:], j[:-1]] = 1
    elif kind in ("fourier", "h"):
        out = np.exp(2j * np.pi * (np.outer(j, j) % n) / n) / np.sqrt(n)
        if kind == "h":
            out = np.exp(1j * np.pi * j / n)[:, None] * out
    else:
        raise ValueError(f"unknown matrix kind {kind!r}")
    return out


def r_spectrum(kind: str, n: int) -> np.ndarray:
    """Closed-form eigenvalues of pi - pi^T (r-even) or eta - eta^T (r-odd)."""
    k = np.arange(n)
    angle = 2 * np.pi * k / n if kind == "r-even" else (2 * k + 1) * np.pi / n
    return 2j * np.sin(angle)


def coeff_spectrum(kind: str, coeffs: np.ndarray) -> np.ndarray:
    """p(omega^k) for a circulant, p(sigma^(2k+1)) for a skew-circulant."""
    n = coeffs.shape[0]
    if kind == "scirc":
        coeffs = coeffs * np.exp(1j * np.pi * np.arange(n) / n)
    return n * np.fft.ifft(coeffs)


def stencil(x: np.ndarray) -> np.ndarray:
    """R_n x: y_i = x_{i+1} - x_{i-1}, each end using its own entry."""
    padded = np.concatenate(([x[0]], x, [x[-1]]))
    return padded[2:] - padded[:-2]


def row_circulant_apply(row: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_j row[(j - i) % n] x_j by FFT (a cyclic correlation)."""
    column = np.roll(row[::-1], 1)
    return np.fft.ifft(np.fft.fft(column) * np.fft.fft(x))


def skew_circulant_apply(row: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The negacyclic product, as a circulant between two half-angle twists."""
    twist = np.exp(1j * np.pi * np.arange(row.shape[0]) / row.shape[0])
    return twist.conj() * row_circulant_apply(row * twist.conj(), twist * x)


# ------------------------------------------------------------------ parsers

def parse_complex(token: str) -> complex:
    """Read ``re``, or ``re+imi`` / ``re-imi`` as the CLI prints them."""
    if not token.endswith("i"):
        return complex(float(token), 0.0)
    body = token[:-1]
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "eE":
            return complex(float(body[:k]), float(body[k:]))
    raise ValueError(f"not a complex number: {token!r}")


def _json_entries(payload: dict) -> np.ndarray:
    entries = np.asarray(payload["entries"], dtype=float).reshape(-1, 2)
    values = entries[:, 0] + 1j * entries[:, 1]
    return values.reshape(payload["rows"], payload["cols"])


def parse_show(text: str, fmt: str) -> tuple[str, str, np.ndarray]:
    """(header, status, matrix) from a ``show`` report in any format."""
    if fmt == "json":
        doc = json.loads(text)
        return f"{doc['command']} {doc['n']}", doc["status"], _json_entries(doc["payload"])
    lines = text.split("\n")
    if fmt == "csv":
        header = f"{lines[0].split(',', 1)[1]} {lines[1].split(',', 1)[1]}"
        status = lines[2].split(",", 1)[1]
        _, rows, cols = lines[3].split(",")
        body = [[parse_complex(t) for t in line.split(",")] for line in lines[4:]]
        matrix = np.array(body, dtype=np.complex128).reshape(int(rows), int(cols))
        return header, status, matrix
    command, n = lines[0].split("  (n = ")
    status = lines[1].removeprefix("status: ")
    body = [[parse_complex(t) for t in line.split()] for line in lines[2:]]
    return f"{command} {n.rstrip(')')}", status, np.array(body, dtype=np.complex128)


# ------------------------------------------------------------------- checks

def _cli_ok(result) -> str | None:
    code, text = result
    if code != 0:
        return f"exit code {code}"
    if not text.endswith("\n"):
        return "report not terminated by a newline"
    return None


def check_show(kind: str, n: int, fmt: str, result) -> str | None:
    problem = _cli_ok(result)
    if problem:
        return problem
    header, status, matrix = parse_show(result[1].rstrip("\n"), fmt)
    if header != f"show {kind} {n}":
        return f"header {header!r}"
    if status != "pass":
        return f"status {status}"
    expected = show_matrix(kind, n)
    if matrix.shape != expected.shape:
        return f"payload shape {matrix.shape}, expected {expected.shape}"
    error = float(np.max(np.abs(matrix - expected)))
    if error > FORMAT_TOL[fmt]:
        return f"payload differs from the definition by {error:.3e}"
    return None


def check_spectrum(expected: np.ndarray, result) -> str | None:
    problem = _cli_ok(result)
    if problem:
        return problem
    doc = json.loads(result[1])
    if doc["status"] != "pass":
        return f"status {doc['status']}"
    if any(m["value"] > m["bound"] for m in doc["metrics"]):
        return "a metric exceeds its bound"
    values = _json_entries(doc["payload"]).ravel()
    if values.shape != expected.shape:
        return f"{values.shape[0]} eigenvalues, expected {expected.shape[0]}"
    error = float(np.max(np.abs(values - expected)))
    scale = max(1.0, float(np.max(np.abs(expected))))
    if error > SPECTRUM_TOL * scale:
        return f"eigenvalues differ from the reference by {error:.3e}"
    return None


def check_verify(suite: str, n: int, seed: int, result) -> str | None:
    """Structure and verdict of a pretty ``verify`` report for one size."""
    problem = _cli_ok(result)
    if problem:
        return problem
    lines = result[1].rstrip("\n").split("\n")
    if lines[0] != f"verify {suite}  (n = {n}..{n}, seed = {seed})":
        return f"header {lines[0]!r}"
    if lines[1] != "status: pass":
        return lines[1]
    names = []
    for line in lines[2:]:
        name, rest = line.strip().split(" = ", 1)
        value, bound = rest.split("  (bound ")
        if not rest.endswith(", ok)") or float(value) > float(bound.split(",")[0]):
            return f"metric {name} violated"
        names.append(name)
    expected = [m.format(n=n) for m in VERIFY_METRICS[suite]]
    if names != expected:
        return f"metrics {names}, expected {expected}"
    return None


def _relative_error(y, reference: np.ndarray) -> float:
    y = np.asarray(y)
    if y.shape != reference.shape:
        return float("inf")
    return float(np.linalg.norm(y - reference) / max(np.linalg.norm(reference), 1e-300))


def check_matvec(reference: np.ndarray, y) -> str | None:
    error = _relative_error(y, reference)
    if error > MATVEC_REL_TOL:
        return f"relative error {error:.3e} against the reference product"
    return None


def check_solve(a: np.ndarray, w: np.ndarray, z) -> str | None:
    z = np.asarray(z)
    if z.shape != w.shape:
        return f"solution shape {z.shape}, expected {w.shape}"
    residual = float(np.linalg.norm(a @ z - w))
    scale = float(np.linalg.norm(a)) * float(np.linalg.norm(z)) + float(np.linalg.norm(w))
    if not residual <= SOLVE_REL_TOL * scale:
        return f"relative residual {residual / scale:.3e}"
    return None


def check_restriction_spectra(n: int, result) -> str | None:
    even, odd = result
    for name, got, kind in (("even", even, "r-even"), ("odd", odd, "r-odd")):
        got = np.asarray(got)
        expected = r_spectrum(kind, n)
        if got.shape != expected.shape:
            return f"{name} spectrum has shape {got.shape}"
        error = float(np.max(np.abs(got - expected)))
        if error > SPECTRUM_TOL:
            return f"{name} spectrum differs from 2i sin by {error:.3e}"
    return None
