"""Command-line behavior: schemas, formats, exit codes, reproducibility."""

import json
import subprocess
import sys

import numpy as np
import pytest

from centrocirc.cli import format_complex, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_show_r5_json_schema(capsys):
    code, out, err = run_cli(capsys, "show", "r", "5", "--format", "json")
    assert code == 0
    assert err == ""
    report = json.loads(out)
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
    report = json.loads(out)
    assert report["status"] == "pass"
    values = [complex(re, im) for re, im in report["payload"]["entries"]]
    np.testing.assert_allclose(values, [1, 1j, -1, -1j], atol=1e-12)
    metric = report["metrics"][0]
    assert metric["name"] == "max_eigenpair_residual"
    assert metric["value"] <= metric["bound"]


def test_spectrum_accepts_i_suffix(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "circ", "1,2i", "--format", "json")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


@pytest.mark.parametrize("coeffs", ["inf,1", "1,-inf"])
def test_spectrum_infinite_coefficient_is_rejected_as_nonfinite(capsys, coeffs):
    code, out, err = run_cli(capsys, "spectrum", "circ", coeffs)
    assert code == 2
    assert "finite" in err
    assert out == ""


def test_spectrum_negative_leading_coefficient_after_double_dash(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "circ", "--format", "json", "--", "-0.5,1")
    assert code == 0
    values = [complex(re, im) for re, im in json.loads(out)["payload"]["entries"]]
    np.testing.assert_allclose(values, [0.5, -1.5], atol=1e-15)


def test_spectrum_r_kinds(capsys):
    for kind in ("r-even", "r-odd"):
        code, out, _ = run_cli(capsys, "spectrum", kind, "8", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["n"] == 8
        assert report["status"] == "pass"


def test_spectrum_zero_tolerance_fails_with_exit_1(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "circ", "0,1,0,0", "--tol", "0", "--format", "json"
    )
    assert code == 1
    assert json.loads(out)["status"] == "fail"


def test_verify_json_schema_and_exit(capsys):
    code, out, _ = run_cli(capsys, "verify", "unitary", "2..8", "--format", "json")
    assert code == 0
    report = json.loads(out)
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
