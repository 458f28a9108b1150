"""Self-tests of the benchmark: request lists, oracles, failure counting and
the tracer.  Run from the repository root::

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import centrocirc  # noqa: E402
import centrocirc.cli  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from worker import call, run_requests  # noqa: E402


def cli(*argv):
    return call(workloads.Request(key=(), check=None, argv=argv), None)


def signatures(workload, seed):
    return [r.signature() for r in workloads.build(workload, seed)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_request_list_is_a_function_of_the_seed(workload):
    first = signatures(workload, 7)
    assert first == signatures(workload, 7)
    assert first != signatures(workload, 8)
    assert len(first) >= 100  # at least ten samples beyond the p90


def test_verify_sweep_never_repeats_a_suite_and_size():
    requests = workloads.build("verify_sweep", 3)
    assert workloads.repeat_share(requests) == 0.0
    assert len(requests) == len(workloads.VERIFY_SUITES) * len(workloads.VERIFY_SIZES)


def test_show_render_repeats_two_thirds_of_dense_builds():
    requests = workloads.build("show_render", 3)
    assert workloads.repeat_share(requests) == pytest.approx(2 / 3)
    sizes = {int(r.argv[2]) for r in requests}
    assert sum(n % 2 for n in sizes) == len(sizes) // 2


def test_library_inputs_repeat_exactly():
    requests = workloads.build("structured_large", 5)
    lib = next(r for r in requests if r.func == "circulant.scirc_matvec")
    (op1, x1), (op2, x2) = lib.inputs(), lib.inputs()
    assert np.array_equal(op1.coeffs, op2.coeffs) and np.array_equal(x1, x2)


@pytest.mark.parametrize("n", [2, 3, 8, 11])
def test_references_match_brute_force_definitions(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    row = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    circ = np.array([[row[(j - i) % n] for j in range(n)] for i in range(n)])
    skew = np.array([[row[(j - i) % n] * (-1 if j < i else 1) for j in range(n)]
                     for i in range(n)])
    assert np.allclose(oracles.row_circulant_apply(row, x), circ @ x)
    assert np.allclose(oracles.skew_circulant_apply(row, x), skew @ x)
    assert np.allclose(oracles.stencil(x), oracles.show_matrix("r", n) @ x)
    # eigenvalue k belongs to column k of F* (circulant) or H* (skew)
    for kind, dense, vectors in (("circ", circ, "fourier"), ("scirc", skew, "h")):
        v = oracles.show_matrix(vectors, n)
        assert np.allclose(dense @ v, v * oracles.coeff_spectrum(kind, row))
    for kind, shift, vectors in (("r-even", "pi", "fourier"), ("r-odd", "eta", "h")):
        dense = oracles.show_matrix(shift, n) - oracles.show_matrix(shift, n).T
        v = oracles.show_matrix(vectors, n)
        assert np.allclose(dense @ v, v * oracles.r_spectrum(kind, n))


@pytest.mark.parametrize("fmt", workloads.SHOW_FORMATS)
@pytest.mark.parametrize("kind", workloads.SHOW_KINDS)
def test_show_oracle_accepts_the_cli_and_rejects_a_flipped_sign(kind, fmt):
    n = 5
    code, text = cli("show", kind, str(n), "--format", fmt)
    assert oracles.check_show(kind, n, fmt, (code, text)) is None
    header, status, matrix = oracles.parse_show(text.rstrip("\n"), fmt)
    i, j = np.argwhere(np.abs(matrix) > 0.1)[-1]
    flipped = matrix.copy()
    flipped[i, j] = -flipped[i, j]
    if fmt == "json":
        doc = json.loads(text)
        doc["payload"]["entries"] = [[z.real, z.imag] for z in flipped.ravel()]
        bad = json.dumps(doc) + "\n"
    else:
        cell = oracles.parse_complex
        lines = text.rstrip("\n").split("\n")
        row = 4 + i if fmt == "csv" else 2 + i
        sep = "," if fmt == "csv" else None
        tokens = lines[row].split(sep)
        value = cell(tokens[j])
        tokens[j] = (f"{-value.real:.12g}{-value.imag:+.12g}i" if fmt == "csv"
                     else f"{-value.real:.6g}{-value.imag:+.6g}i")
        lines[row] = ",".join(tokens) if fmt == "csv" else "  " + "  ".join(tokens)
        bad = "\n".join(lines) + "\n"
    assert oracles.check_show(kind, n, fmt, (0, bad)) is not None
    assert oracles.check_show(kind, n + 1, fmt, (code, text)) is not None


@pytest.mark.parametrize("kind,arg", [("r-even", "12"), ("r-odd", "9"),
                                      ("circ", "-0.5,1,2.25,0"), ("scirc", "-1.5,0.25,3")])
def test_spectrum_oracle_rejects_a_perturbed_eigenvalue(kind, arg):
    code, text = cli("spectrum", kind, "--format", "json", "--", arg)
    if kind.startswith("r-"):
        expected = oracles.r_spectrum(kind, int(arg))
    else:
        coeffs = np.array([float(t) for t in arg.split(",")], dtype=np.complex128)
        expected = oracles.coeff_spectrum(kind, coeffs)
    assert oracles.check_spectrum(expected, (code, text)) is None
    doc = json.loads(text)
    doc["payload"]["entries"][1][1] += 1e-6
    assert oracles.check_spectrum(expected, (code, json.dumps(doc))) is not None


def test_negative_leading_coefficient_needs_the_separator():
    assert cli("spectrum", "circ", "-0.5,1")[0] == 2
    assert cli("spectrum", "circ", "--", "-0.5,1")[0] == 0


def test_solve_oracle_rejects_a_wrong_solve():
    a, w = workloads._solve_inputs(41, 3)
    z = centrocirc.solve_centro_symmetric(a, w)
    assert oracles.check_solve(a, w, z) is None
    assert oracles.check_solve(a, w, z * (1 + 1e-6)) is not None
    assert oracles.check_solve(a, w, np.linalg.solve(a, w[::-1])) is not None


@pytest.mark.parametrize("func", workloads.MATVEC_FUNCS)
def test_matvec_oracle_rejects_a_wrong_product(func):
    args = workloads._matvec_inputs(func, 1025, 1, 2)
    module, name = func.split(".")
    y = getattr(getattr(centrocirc, module), name)(*args)
    assert workloads._check_matvec(func, args, y) is None
    assert workloads._check_matvec(func, args, y[::-1]) is not None
    assert workloads._check_matvec(func, args, y[:-1]) is not None


def test_restriction_oracle_rejects_a_perturbed_eigenvalue():
    even, odd = centrocirc.restriction_spectra(16)
    assert oracles.check_restriction_spectra(16, (even, odd)) is None
    assert oracles.check_restriction_spectra(16, (even, odd + 1e-7)) is not None


def test_verify_oracle_rejects_a_failing_report():
    result = cli("verify", "relation", "6..6", "--seed", "4")
    assert oracles.check_verify("relation", 6, 4, result) is None
    assert oracles.check_verify("relation", 6, 5, result) is not None
    failing = cli("verify", "relation", "6..6", "--seed", "4", "--tol", "0")
    assert oracles.check_verify("relation", 6, 4, failing) is not None


def test_failed_requests_are_counted():
    good = workloads.build("show_render", 1)[:3]
    raises = workloads.Request(key=("x",), func="relation.r_apply",
                               inputs=lambda: (centrocirc.SpecialTridiag(4), np.ones(5)),
                               check=lambda args, y: None)
    wrong = workloads.Request(key=("y",), argv=("show", "r", "4"),
                              check=lambda args, result: "forced failure")
    usage = workloads.Request(key=("z",), argv=("show", "r", "0"),
                              check=lambda args, result: oracles.check_show("r", 0, "pretty", result))
    result = run_requests(good + [raises, wrong, usage])
    assert (result["attempted"], result["failed"]) == (6, 3)
    assert len(result["latencies_ms"]) == 6


def traced_pass(requests):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = run_requests(requests, tracer)
    finally:
        tracer.uninstall()
    result.update(functions=tracer.summary(), traced=True)
    return result, tracer


def test_tracer_catches_from_imports_and_restores_them():
    original = centrocirc.relation.r_dense
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert centrocirc.r_dense is centrocirc.relation.r_dense is centrocirc.cli.r_dense
        assert centrocirc.cli.r_dense is not original
        assert centrocirc.centro.as_vector is centrocirc.dense.as_vector
    finally:
        tracer.uninstall()
    assert centrocirc.r_dense is centrocirc.cli.r_dense is original


def test_trace_counts_repeat_and_every_listed_metric_is_reported():
    requests = [r for r in workloads.build("structured_large", 2)
                if r.argv is not None or "r_apply" in r.func][:25]
    requests += workloads.build("verify_sweep", 2)[:10]
    first, tracer = traced_pass(requests)
    second, _ = traced_pass(requests)
    assert first["failed"] == 0
    assert run.count_table(first) == run.count_table(second)
    assert all(parent < k for k, (_, parent, *_) in enumerate(tracer.spans))
    plain = dict(run_requests(requests), traced=False)
    metrics = run.per_layer([first, second], [plain])
    assert 0 < metrics["trace.coverage"] <= 1
    assert metrics["cli.main.calls"] == sum(r.argv is not None for r in requests)
    assert metrics["dense.as_vector.calls"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for m in spec["per_layer"]:
        assert m["name"] in metrics
    e2e = run.end_to_end([dict(plain, setup_s=0.2, peak_rss_mib=50.0)])
    assert {m["name"] for m in spec["end_to_end"]} == set(e2e)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
