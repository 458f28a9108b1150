"""The public surface: the names the package exports, the functions the
benchmark's per-layer rows count, and how its result types compare."""

import inspect
import json
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

import centrocirc
from centrocirc import cli

PUBLIC_NAMES = [
    "CentroSplit", "Circulant", "ComplexEntriesError", "EigenPair", "EvenOddBasis",
    "EvenOddSplit", "FourierPack", "NotCentroSkewError", "NotCentroSymmetricError",
    "SignPattern", "SingularMatrixError", "SkewCirculant", "SpecialTridiag",
    "basic_circulant", "basic_skew_circulant", "block_form", "centro_split",
    "circ_dense", "circ_eigenpairs", "circ_matvec", "circ_mul", "circ_spectrum",
    "eta_minus_etat_coeffs", "even_odd_basis", "even_odd_split",
    "exchange_dense", "fourier_star_dense", "has_sign_pattern", "is_centro_skew",
    "is_centro_symmetric", "lower_shift_dense", "make_fourier_pack",
    "nilpotent_realization", "nilpotent_scaling",
    "pi_minus_pit_coeffs", "poly_eval", "r_apply", "r_apply_via_relation",
    "r_dense", "rank_one_defects", "reflect_eigenpair", "restriction_spectra",
    "scirc_dense", "scirc_eigenpairs", "scirc_matvec", "scirc_mul",
    "scirc_spectrum", "sigma_powers", "sign_pattern_of", "solve_centro_symmetric",
    "solve_dense", "verify_nilpotent",
]

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"


def test_public_names_are_pinned():
    names = sorted(name for name, value in vars(centrocirc).items()
                   if not name.startswith("_") and not inspect.ismodule(value))
    assert names == PUBLIC_NAMES


def test_per_layer_function_rows_name_public_functions():
    # a row <layer>.<function>.<stat> is read from the tracer, which wraps
    # the public functions each layer module defines
    rows = [row["name"].split(".") for row in json.loads(BENCHMARK.read_text())["per_layer"]]
    function_rows = [parts for parts in rows if len(parts) == 3]
    assert function_rows
    for layer, name, _ in function_rows:
        module = import_module(f"centrocirc.{layer}")
        func = getattr(module, name, None)
        assert inspect.isfunction(func) and func.__module__ == module.__name__, (layer, name)
        assert not name.startswith("_")


_ARRAY_RESULTS = {
    "Circulant": lambda: centrocirc.Circulant([1, 2]),
    "SkewCirculant": lambda: centrocirc.SkewCirculant([1, 2]),
    "EigenPair": lambda: centrocirc.EigenPair(value=1.0, vector=np.ones(2)),
    "EvenOddSplit": lambda: centrocirc.even_odd_split([1, 2, 3]),
    "CentroSplit": lambda: centrocirc.centro_split(np.arange(9.0).reshape(3, 3)),
    "EvenOddBasis": lambda: centrocirc.even_odd_basis(3),
    "SignPattern": lambda: centrocirc.sign_pattern_of([[0, 1], [-1, 0]]),
    "FourierPack": lambda: centrocirc.make_fourier_pack(3),
    "CommandReport": lambda: cli.cmd_show("r", "2"),
}


@pytest.mark.parametrize("name", sorted(_ARRAY_RESULTS))
def test_array_results_compare_and_hash_by_identity(name):
    # a generated field-by-field == would ask an array for its truth value
    build = _ARRAY_RESULTS[name]
    x, y = build(), build()
    assert type(x).__name__ == name
    assert x == x
    assert (x == y) is False
    assert x != y
    assert len({x, y}) == 2


def test_package_and_commands_import_no_scipy():
    # numpy is the one runtime dependency: import, show, spectrum and a
    # verify run that solves leave scipy unloaded
    script = """
import contextlib, io, sys
import centrocirc, centrocirc.cli
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["show", "r", "7"], ["spectrum", "r-odd", "8"], ["verify", "all", "2..4"]):
        assert centrocirc.cli.main(argv) == 0, argv
print("scipy" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_no_source_file_mentions_scipy():
    sources = sorted((ROOT / "src").rglob("*.py"))
    assert sources
    for path in sources:
        assert "scipy" not in path.read_text().lower(), path
