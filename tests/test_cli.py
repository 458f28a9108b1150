"""Command-line behavior: schemas, formats, exit codes, reproducibility."""

import contextlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrocirc import (
    circ_dense,
    circ_eigenpairs,
    eta_minus_etat_coeffs,
    pi_minus_pit_coeffs,
    scirc_dense,
    scirc_eigenpairs,
)
from centrocirc.cli import (
    Circulant,
    CommandReport,
    Metric,
    SkewCirculant,
    format_complex,
    main,
    matrix_payload,
    render_report,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def test_show_r5_json_schema(capsys):
    code, out, err = run_cli(capsys, "show", "r", "5", "--format", "json")
    assert code == 0
    assert err == ""
    report = strict_json(out)
    assert list(report.keys()) == ["command", "n", "status", "metrics", "payload"]
    assert report["command"] == "show r"
    assert report["n"] == 5
    assert report["status"] == "pass"
    assert report["metrics"] == []
    payload = report["payload"]
    assert payload["rows"] == 5 and payload["cols"] == 5
    dense = np.array([complex(re, im) for re, im in payload["entries"]]).reshape(5, 5)
    np.testing.assert_array_equal(
        dense,
        [
            [-1, 1, 0, 0, 0],
            [-1, 0, 1, 0, 0],
            [0, -1, 0, 1, 0],
            [0, 0, -1, 0, 1],
            [0, 0, 0, -1, 1],
        ],
    )


def test_show_pretty_renders_rows(capsys):
    code, out, _ = run_cli(capsys, "show", "exchange", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "show exchange  (n = 3)"
    assert lines[1] == "status: pass"
    assert len(lines) == 5  # header, status, three matrix rows


def test_show_eta2_csv(capsys):
    code, out, _ = run_cli(capsys, "show", "eta", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "command,show eta"
    assert "payload,2,2" in lines
    assert lines[-2] == "0+0i,1+0i"
    assert lines[-1] == "-1+0i,0+0i"


def test_format_complex():
    assert format_complex(1j) == "0+1i"
    assert format_complex(-1.5 - 2j) == "-1.5-2i"


@pytest.mark.parametrize(
    "argv",
    [
        ("show", "r", "1"),  # below the minimum size for r
        ("show", "r", "1025"),
        ("show", "r", "five"),
        ("spectrum", "circ", ",,"),
        # an empty token anywhere is an error, not a skipped coefficient
        ("spectrum", "circ", "1,,2,"),
        ("spectrum", "circ", "1,,2"),
        ("spectrum", "scirc", "1,2,"),
        ("spectrum", "circ", ",1"),
        ("spectrum", "scirc", "1, ,2"),
        ("spectrum", "circ", ""),
        ("spectrum", "circ", "1,bad"),
        ("spectrum", "r-even", "0"),
        ("verify", "all", "5..2"),
        ("verify", "all", "1..4"),
        ("verify", "all", "2..100"),
        ("verify", "all", "2-4"),
        # non-finite input is a usage error, not a failed verification
        ("spectrum", "circ", "1,nan,2"),
        ("spectrum", "scirc", "1,1e400"),
        ("spectrum", "circ", "1,2", "--tol", "nan"),
        ("spectrum", "r-even", "8", "--tol", "-1"),
        ("verify", "relation", "2..4", "--tol", "nan"),
        ("verify", "relation", "2..4", "--tol", "inf"),
        ("verify", "centro", "2..4", "--tol=-1e-3"),
        ("verify", "relation", "2..3", "--seed", "-1"),
        # finite input whose residual bound or spectrum overflows
        ("spectrum", "circ", "1,2", "--tol", "1e308", "--format", "json"),
        ("spectrum", "r-odd", "64", "--tol", "1e307"),
        ("spectrum", "circ", "--", "1e308,1e308,1e308"),
        ("spectrum", "scirc", "--format", "json", "--", "1e200,1e200"),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "show" in out and "spectrum" in out and "verify" in out


def test_spectrum_circ_shift_eigenvalues(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "circ", "0,1,0,0", "--format", "json")
    assert code == 0
    report = strict_json(out)
    assert report["status"] == "pass"
    values = [complex(re, im) for re, im in report["payload"]["entries"]]
    np.testing.assert_allclose(values, [1, 1j, -1, -1j], atol=1e-12)
    metric = report["metrics"][0]
    assert metric["name"] == "max_eigenpair_residual"
    assert metric["value"] <= metric["bound"]


def test_spectrum_accepts_i_suffix(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "circ", "1,2i", "--format", "json")
    assert code == 0
    assert strict_json(out)["status"] == "pass"


@pytest.mark.parametrize("coeffs", ["inf,1", "1,-inf"])
def test_spectrum_infinite_coefficient_is_rejected_as_nonfinite(capsys, coeffs):
    code, out, err = run_cli(capsys, "spectrum", "circ", coeffs)
    assert code == 2
    assert "finite" in err
    assert out == ""


def test_spectrum_negative_leading_coefficient_after_double_dash(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "circ", "--format", "json", "--", "-0.5,1")
    assert code == 0
    values = [complex(re, im) for re, im in strict_json(out)["payload"]["entries"]]
    np.testing.assert_allclose(values, [0.5, -1.5], atol=1e-15)


def test_spectrum_r_kinds(capsys):
    for kind in ("r-even", "r-odd"):
        code, out, _ = run_cli(capsys, "spectrum", kind, "8", "--format", "json")
        assert code == 0
        report = strict_json(out)
        assert report["n"] == 8
        assert report["status"] == "pass"


def test_spectrum_zero_tolerance_fails_with_exit_1(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "circ", "0,1,0,0", "--tol", "0", "--format", "json"
    )
    assert code == 1
    assert strict_json(out)["status"] == "fail"


def test_verify_json_schema_and_exit(capsys):
    code, out, _ = run_cli(capsys, "verify", "unitary", "2..8", "--format", "json")
    assert code == 0
    report = strict_json(out)
    assert list(report.keys()) == ["command", "n", "n_range", "seed", "status", "metrics"]
    assert report["command"] == "verify unitary"
    assert report["n_range"] == "2..8"
    assert report["seed"] == 0
    assert report["status"] == "pass"


def test_verify_repeated_runs_byte_identical(capsys):
    argv = ("verify", "relation", "2..10", "--seed", "31337", "--format", "json")
    code_a, out_a, _ = run_cli(capsys, *argv)
    code_b, out_b, _ = run_cli(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_verify_zero_tolerance_fails_with_exit_1(capsys):
    code, out, _ = run_cli(
        capsys,  "verify", "relation", "2..4", "--tol", "0", "--format", "pretty"
    )
    assert code == 1
    assert "status: fail" in out
    assert "VIOLATED" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "centrocirc", "show", "shift", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("show shift")


def test_closed_stdout_exits_with_report_code_and_no_traceback():
    # the pretty n = 200 transform is far larger than a pipe buffer, so the
    # writer is still blocked when the reader hangs up after one line
    proc = subprocess.Popen(
        [sys.executable, "-m", "centrocirc", "show", "fourier", "200"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert first.startswith(b"show fourier")
    assert err == b""


def _parent_spectrum_report(kind, arg, tol=1e-10):
    """The reference spectrum report, rebuilt the long way: a list of
    eigenpairs, their vectors re-stacked with column_stack, and the dense
    residual of the stacked matrix."""
    if kind in ("circ", "scirc"):
        coeffs = np.array([complex(t.replace("i", "j")) for t in arg.split(",")])
        matrix = Circulant(coeffs) if kind == "circ" else SkewCirculant(coeffs)
    else:
        n = int(arg)
        matrix = pi_minus_pit_coeffs(n) if kind == "r-even" else eta_minus_etat_coeffs(n)
    if isinstance(matrix, Circulant):
        pairs, dense = circ_eigenpairs(matrix), circ_dense(matrix)
    else:
        pairs, dense = scirc_eigenpairs(matrix), scirc_dense(matrix)
    values = np.array([p.value for p in pairs])
    vectors = np.column_stack([p.vector for p in pairs])
    residual = float(np.max(np.linalg.norm(dense @ vectors - vectors * values, axis=0)))
    bound = tol * matrix.n * max(float(np.linalg.norm(matrix.coeffs)), 1.0)
    metrics = [Metric("max_eigenpair_residual", residual, bound)]
    return CommandReport(command=f"spectrum {kind}", n=matrix.n,
                         status="pass" if metrics[0].ok else "fail",
                         metrics=metrics, payload=matrix_payload(values))


_SPECTRUM_CASES = [(kind, str(n)) for kind in ("r-even", "r-odd") for n in (2, 3, 64, 1024)]
_SPECTRUM_CASES += [
    ("circ", "0,1,0,0"), ("scirc", "0,1,0,0"), ("circ", "7"), ("scirc", "-2.5"),
    ("circ", "1,2i,-0.0,3.25,-4"), ("scirc", "1,2i,-0.0,3.25,-4"),
]
_SPECTRUM_CASES += [
    (kind, ",".join(f"{c:.5f}" for c in np.random.default_rng(n).standard_normal(n)))
    for kind in ("circ", "scirc") for n in (5, 64, 97)
]


@pytest.mark.parametrize("kind,arg", _SPECTRUM_CASES)
def test_spectrum_report_matches_eigenpair_rebuild(capsys, kind, arg):
    expected = _parent_spectrum_report(kind, arg)
    for fmt in ("pretty", "json", "csv"):
        code, out, err = run_cli(capsys, "spectrum", kind, "--format", fmt, "--", arg)
        assert err == ""
        assert code == (0 if expected.status == "pass" else 1)
        assert out == render_report(expected, fmt) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "circ", "1,2", "--tol", "1e308", "--format", "json"),
        ("spectrum", "circ", "--format", "json", "--", "1e308,1e308,1e308"),
    ],
)
def test_spectrum_overflow_is_a_usage_error_not_a_report(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "overflows" in err


def test_spectrum_json_reports_are_standard_json(capsys):
    # the largest tolerance and coefficients that still fit keep every
    # number finite, so strict parsing succeeds
    for argv in (
        ("spectrum", "circ", "--tol", "1e300", "--", "1,2"),
        ("spectrum", "scirc", "--tol", "1e-300", "--", "1e150,-1e150,1e150"),
        ("spectrum", "r-odd", "--tol", "0", "--", "1024"),
    ):
        code, out, _ = run_cli(capsys, *argv[:2], "--format", "json", *argv[2:])
        assert code in (0, 1)
        report = strict_json(out)
        assert all(np.isfinite([m["value"], m["bound"]]).all() for m in report["metrics"])


_NUMBERS = ["0", "1", "-1", "2", "3", "7", "64", "65", "-0.0", "1e308", "-1e308",
            "1e400", "nan", "inf", "-inf", "2i", "1+2i", "99999999999999999999", "x", ""]
_sizes = st.one_of(st.integers(-2, 64).map(str), st.sampled_from(_NUMBERS))
_seeds = st.one_of(st.integers(-3, 5).map(str), st.sampled_from(_NUMBERS))
_coeffs = st.lists(st.sampled_from(_NUMBERS + ["0.5", "-2.5", "1e150"]),
                   min_size=1, max_size=6).map(",".join)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["show", "spectrum", "verify", "bogus"]))
    if command == "show":
        argv = ["show", draw(st.sampled_from(["r", "pi", "eta", "exchange", "fourier",
                                              "h", "shift", "nope"])), draw(_sizes)]
    elif command == "spectrum":
        kind = draw(st.sampled_from(["circ", "scirc", "r-even", "r-odd", "nope"]))
        arg = draw(_coeffs if kind in ("circ", "scirc") else _sizes)
        argv = ["spectrum", kind, "--", arg] if draw(st.booleans()) else ["spectrum", kind, arg]
    elif command == "verify":
        # narrow valid ranges keep each example fast; the bounds can be anything
        hi = draw(st.one_of(st.integers(2, 12), st.sampled_from([64, 65, 0, -3, 10 ** 20])))
        lo = draw(st.one_of(st.integers(max(hi - 2, -3), max(hi, -3)), st.sampled_from([1, 2])))
        suite = draw(st.sampled_from(["relation", "nilpotent", "centro", "unitary",
                                      "all", "nope"]))
        argv = ["verify", suite, draw(st.sampled_from([f"{lo}..{hi}", f"{lo}-{hi}"]))]
        if draw(st.booleans()):
            argv += ["--seed", draw(_seeds)]
    else:
        argv = [command]
    if draw(st.booleans()):
        argv[2:2] = ["--tol", draw(st.sampled_from(_NUMBERS + ["1e-300", "1e300"]))]
    if draw(st.booleans()):
        argv[2:2] = ["--format", draw(st.sampled_from(["pretty", "json", "csv", "xml"]))]
    return argv


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_every_argv_exits_0_1_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out = out.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
    elif "json" in argv:
        strict_json(out)
