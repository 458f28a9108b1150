"""Command-line behavior: schemas, formats, exit codes, reproducibility."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centrocirc import (
    circ_dense,
    circ_eigenpairs,
    eta_minus_etat_coeffs,
    fourier_star_dense,
    pi_minus_pit_coeffs,
    scirc_dense,
    scirc_eigenpairs,
    sigma_powers,
)
from centrocirc import cli
from centrocirc.cli import (
    Circulant,
    CommandReport,
    Metric,
    SkewCirculant,
    format_complex,
    main,
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


def _pair_payload(a):
    # the reference layout: one [re, im] pair of floats per entry, row-major;
    # a 1-D spectrum is one column
    if a.ndim == 1:
        a = a[:, None]
    entries = [[float(z.real), float(z.imag)] for z in a.ravel()]
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "entries": entries}


def _pair_rows(payload, cell):
    # decode the pairs back into rows of formatted cells
    rows, cols, entries = payload["rows"], payload["cols"], payload["entries"]
    return [[cell(complex(re, im)) for re, im in entries[i * cols:(i + 1) * cols]]
            for i in range(rows)]


def _pair_render(report, payload, fmt):
    """The three formats of a report rendered from its [re, im] pair payload."""
    if fmt == "json":
        return json.dumps({**report.to_dict(), "payload": payload}, indent=2)
    head = render_report(CommandReport(report.command, report.n, report.metrics), fmt)
    if fmt == "csv":
        lines = [f"payload,{payload['rows']},{payload['cols']}"]
        lines += [",".join(row) for row in _pair_rows(payload, format_complex)]
    else:
        cells = _pair_rows(payload, cli._pretty_cell)
        width = max(len(c) for row in cells for c in row)
        lines = ["  " + "  ".join(c.rjust(width) for c in row) for row in cells]
    return "\n".join([head, *lines])


_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 6.123e-17, -6.123e-17, 1e-300, 1e300]),
    st.floats(-4.0, 4.0),
)


@st.composite
def _matrices(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    parts = draw(st.lists(_PARTS, min_size=2 * rows * cols, max_size=2 * rows * cols))
    # set the parts one by one: arithmetic would lose the sign of a zero
    m = np.empty((rows, cols), dtype=np.complex128)
    m.real = np.reshape(parts[::2], (rows, cols))
    m.imag = np.reshape(parts[1::2], (rows, cols))
    return m


@settings(max_examples=200, deadline=None)
@given(_matrices())
def test_rendered_matrix_matches_pair_payload(m):
    # the report keeps the array and renders it directly; every format must
    # print what the [re, im] pair layout decoded back into rows prints
    report = CommandReport(command="show x", n=m.shape[0],
                           metrics=[Metric("m", 0.5, 1.0)], matrix=m)
    payload = _pair_payload(m[:, 0] if m.shape[1] == 1 else m)
    # json.dumps tells -0.0 from 0.0 and 1 from 1.0; == does not
    assert json.dumps(report.to_dict()["payload"]) == json.dumps(payload)
    for fmt in ("pretty", "json", "csv"):
        assert render_report(report, fmt) == _pair_render(report, payload, fmt)


# sha256 of stdout at n = 7, from the [re, im] pair renderers
_SHOW_7_SHA256 = {
    ("r", "pretty"): "965a43b18cad0bc14e37c13ba218662fb7d7c7c3ac97d4eda1645ab0b64db57c",
    ("r", "json"): "39af7935139ed494ec435e905b016875f0fc2219bd9eb8b3a8df8b7a10db5fd4",
    ("r", "csv"): "387dbf39bc135a45ba129120155a2024edd8abf2a018a4e6a1b3fe9292ef6050",
    ("pi", "pretty"): "92cb02a4b788007936aa5517ad854390179c6a1de1af094f34d82711ade1edff",
    ("pi", "json"): "55bfb02c011a1b872df9b85bb13055fc66f1bbdeb1546388abf3ffbe86afc4a6",
    ("pi", "csv"): "99f2fa7b2d4fca1d494549481a0d3228a6d1684eadf1d9fb2f2f4062b8256a7e",
    ("eta", "pretty"): "83a7ba4c56789b9421eb0a93a9670ca7818c7f5c380507f1aea3056443f20c3d",
    ("eta", "json"): "21229b3856672e0813c696a7d78d66461e859c7ae83d336ddfceffe224fa759a",
    ("eta", "csv"): "a4e12a5f0f352fb8e9c67c198662e6f13561ee2263a31b9ac64a5060e843f30e",
    ("exchange", "pretty"): "0f3ee8b7be424c3c6e652d388fc35371c98329963e345e90537efbdefa703cca",
    ("exchange", "json"): "06042317c37327dbf012be68b35ecd6ef2921c6c04a58d68ff34902c7813370a",
    ("exchange", "csv"): "8ea49bdf0007d5ca193987ef02c9397e1024afa2673904a12adc2b5caef34713",
    ("fourier", "pretty"): "96e3dd7e625920116cdee91d309b30b8e0220b99e1ce6a92728996b20772d7c5",
    ("fourier", "json"): "3cbf85b8365b13ac30499d68e2df27a9a16e47818b28431f8acd1607906479fa",
    ("fourier", "csv"): "d254111286bbf80d137fca4f698c9971be9c29bd834f03610524c38378af6ff1",
    ("h", "pretty"): "ce2354023838953ec88e117f93f8be9c07ac0b306e38f3970a1951d98c291797",
    ("h", "json"): "66af7b69534f057f1a309dcb88fc79a9010b3f62f03b07deaeab55c754a99bf3",
    ("h", "csv"): "ce8e2d4a73fb1f46feb678886186569a913517a50dff57432f66d1335890de0f",
    ("shift", "pretty"): "75a8a45752a24546bd0a10d735064f2614c6a567491683eaf71da560d637d005",
    ("shift", "json"): "caf0e32b6f596acaf036fc7490e88343ba2feac0320e5a4ffc0b01b02ad437d7",
    ("shift", "csv"): "3f93667cce2c8128bace8e7365cd1c10a3b92ccc960208317fc3847bb698a63d",
}


@pytest.mark.parametrize("kind,fmt", sorted(_SHOW_7_SHA256))
def test_show_7_bytes_are_pinned(capsys, kind, fmt):
    code, out, err = run_cli(capsys, "show", kind, "7", "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _SHOW_7_SHA256[kind, fmt]


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
        ("spectrum", "scirc", "--format", "json", "--", "1e308,1e308,1e308,1e308"),
        # sizes and ranges are ASCII digits only, not int() syntax
        ("show", "r", "1_0"),
        ("show", "r", " 5"),
        ("show", "r", "+5"),
        ("show", "r", "\u0665"),
        ("spectrum", "r-odd", "1_6"),
        ("verify", "relation", "\u0662..\u0663"),
        ("verify", "relation", " 2..3"),
        ("verify", "relation", "2.." + "9" * 5000),
        # a coefficient list is capped like a size
        ("spectrum", "circ", ",".join(["1"] * 1025)),
        ("spectrum", "scirc", ",".join(["1"] * 1025)),
        # the seed is read like a size; a tolerance or coefficient is ASCII
        # without "_", not Python's numeric syntax
        ("verify", "unitary", "2..3", "--seed", "\u0663"),
        ("verify", "unitary", "2..3", "--seed", "1_0"),
        ("verify", "unitary", "2..3", "--seed", "+3"),
        ("verify", "unitary", "2..3", "--seed", "3.0"),
        ("spectrum", "r-even", "4", "--tol", "\u0663e-1_0"),
        ("spectrum", "r-even", "4", "--tol", "1e-1_0"),
        ("verify", "relation", "2..3", "--tol", "\u0661e-3"),
        ("spectrum", "circ", "\u0663,1_0"),
        ("spectrum", "circ", "\uff11,2"),
        ("spectrum", "scirc", "1,2_0"),
        ("spectrum", "circ", "1,\u0662i"),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


@pytest.mark.parametrize("argv", [("show", "nope", "3"), ("spectrum", "nope", "4"),
                                  ("verify", "nope", "2..3")])
def test_unknown_kind_or_suite_exits_2(capsys, argv):
    # argparse's choices are the one check of a kind or suite
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "error: argument " in err and "invalid choice: 'nope'" in err


def test_show_takes_no_tol(capsys):
    # argparse rejects the option before any command runs
    code, out, err = run_cli(capsys, "show", "r", "3", "--tol", "1e-3")
    assert (code, out) == (2, "")
    assert "error: unrecognized arguments: --tol 1e-3" in err


def test_cli_import_builds_no_parser_and_main_builds_it_once():
    # a fresh process counts every ArgumentParser built, subparsers included
    script = """
import argparse, contextlib, io
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import centrocirc.cli as cli
after_import = len(built)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    cli.main(["verify", "unitary", "2..2"])
    after_first = len(built)
    for argv in (["show", "r", "3"], ["--help"], ["show", "r", "1"], ["bogus"],
                 ["verify", "unitary", "2..3", "--seed", "x"]) * 10:
        cli.main(argv)
print(after_import, after_first, len(built))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    after_import, after_first, after_all = map(int, proc.stdout.split())
    assert after_import == 0
    assert after_first > 0
    assert after_all == after_first


_PARSER_SEQUENCE = [
    ["verify", "unitary", "2..3", "--seed", "4", "--tol", "1e-3", "--format", "json"],
    ["verify", "unitary", "2..3"],
    ["--help"],
    ["show", "r", "1"],
    ["spectrum", "circ", "1,2i", "--tol", "0", "--format", "csv"],
    ["verify", "--help"],
    ["show", "pi", "3", "--format", "xml"],
    ["spectrum", "circ", "--", "-1,2"],
    [],
    ["frobnicate"],
    ["verify", "unitary", "2..3", "--seed"],
    ["spectrum", "scirc", "1,2"],
    ["show", "exchange", "3", "--format", "pretty"],
    ["verify", "nilpotent", "2..4", "--format", "csv"],
    ["spectrum", "--help"],
    ["show", "shift", "2"],
]


def _captured_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_reused_parser_answers_like_a_fresh_one(monkeypatch):
    # each call through the shared parser, after all the calls before it,
    # prints what a newly built parser prints
    fresh_parser = cli._build_parser.__wrapped__
    for argv in _PARSER_SEQUENCE:
        shared = _captured_main(argv)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_build_parser", fresh_parser)
            assert _captured_main(argv) == shared, argv
    assert [_captured_main(argv)[0] for argv in _PARSER_SEQUENCE] == [
        0, 0, 0, 2, 1, 0, 2, 0, 2, 2, 2, 0, 0, 0, 0, 0]


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


def test_spectrum_accepts_the_largest_coefficient_list(capsys):
    coeffs = ",".join(["0"] * 1023 + ["1"])
    code, out, err = run_cli(capsys, "spectrum", "circ", coeffs, "--format", "csv")
    assert code == 0
    assert err == ""
    assert out.startswith("command,spectrum circ\nn,1024\n")


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


# (metrics, the status they make): a report derives its status from them
_STATUS_CASES = [
    pytest.param([], "pass", id="no-metrics"),
    pytest.param([Metric("a", 1.0, 1.0), Metric("b", 0.0, 0.0)], "pass", id="at-bound"),
    pytest.param([Metric("a", 0.5, 1.0), Metric("b", float(np.nextafter(1.0, 2.0)), 1.0)],
                 "fail", id="above-bound"),
    pytest.param([Metric("a", 0.5, 1.0), Metric("b", float("nan"), 1.0)], "fail",
                 id="nan"),
]


@pytest.mark.parametrize("metrics,status", _STATUS_CASES)
def test_status_and_exit_code_follow_the_metrics(capsys, monkeypatch, metrics, status):
    report = CommandReport(command="show x", n=2, metrics=metrics)
    assert report.status == status
    monkeypatch.setattr(cli, "cmd_show", lambda kind, n: report)
    expected_code = 0 if status == "pass" else 1
    outputs = {}
    for fmt in ("pretty", "json", "csv"):
        code, outputs[fmt], err = run_cli(capsys, "show", "r", "2", "--format", fmt)
        assert (code, err) == (expected_code, "")
    assert outputs["pretty"].splitlines()[1] == f"status: {status}"
    assert strict_json(outputs["json"])["status"] == status
    assert outputs["csv"].splitlines()[2] == f"status,{status}"


def _leading_fields(report):
    # the (key, value) pairs before the metrics, from a JSON report
    return [(key, value) for key, value in report.items()
            if key not in ("metrics", "payload")]


@pytest.mark.parametrize("argv", [
    ["show", "r", "7"],
    ["spectrum", "r-odd", "8"],
    ["verify", "unitary", "2..3", "--seed", "4"],
], ids=" ".join)
def test_csv_leads_with_the_json_fields_in_order(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    fields = _leading_fields(strict_json(out))
    assert [key for key, _ in fields][-1] == "status"
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    lines = out.splitlines()[:len(fields) + 1]
    assert lines[:-1] == [f"{key},{value}" for key, value in fields]
    assert lines[-1].startswith(("metric,", "payload,"))


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
    # a failed report's code reaches the shell too, through sys.exit(main())
    for argv, code in ((("show", "shift", "3"), 0),
                       (("spectrum", "circ", "0,1,0,0", "--tol", "0"), 1)):
        proc = subprocess.run(
            [sys.executable, "-m", "centrocirc", *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == code
        assert proc.stdout.startswith(" ".join(argv[:2]))
        assert proc.stderr == ""


def test_console_script_runs_main():
    # the console-script wrapper calls sys.exit on main's return value
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts == {"centrocirc": "centrocirc.cli:main"}


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
    """The reference spectrum report, rebuilt from a list of eigenpairs: the
    residual of each value against its defining sum sqrt(n) * (row . F*_k),
    with row = c, or for the skew kinds the twisted sigma o c.

    Two cross-checks of the same pairs ride along: the defining sum over
    the column_stack-ed eigenvectors, c . v_k, and the dense eigenpair
    residual ||A v_k - lambda_k v_k||.  For unit v_k all three agree up to
    round-off, so each cross-check must be within the bound and within a
    factor of 10 of the metric (or all three are 0)."""
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
    n, coeffs = matrix.n, matrix.coeffs
    values = np.array([p.value for p in pairs])
    vectors = np.column_stack([p.vector for p in pairs])
    row = coeffs if isinstance(matrix, Circulant) else coeffs * sigma_powers(n)
    residual = float(np.max(np.abs(np.sqrt(n) * (row @ fourier_star_dense(n)) - values)))
    pair_residual = float(np.max(np.abs(np.sqrt(n) * (coeffs @ vectors) - values)))
    dense_residual = float(np.max(np.linalg.norm(dense @ vectors - vectors * values, axis=0)))
    bound = tol * n * max(float(np.linalg.norm(coeffs)), 1.0)
    checks = (pair_residual, dense_residual)
    assert all(check <= bound for check in checks)
    if 0.0 in (residual, *checks):
        assert residual == pair_residual == dense_residual == 0.0
    else:
        assert all(0.1 <= check / residual <= 10.0 for check in checks)
    metrics = [Metric("max_eigenpair_residual", residual, bound)]
    return CommandReport(command=f"spectrum {kind}", n=n,
                         metrics=metrics, matrix=values[:, None])


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


def _spectrum_argv(kind, n):
    # a size for the r-* kinds, n random real coefficients for circ/scirc
    if kind in ("r-even", "r-odd"):
        return ["spectrum", kind, str(n)]
    coeffs = np.random.default_rng(n).standard_normal(n)
    return ["spectrum", kind, "--", ",".join(f"{c:.5f}" for c in coeffs)]


_CONTROL_CASES = [(kind, n) for kind in cli.SPECTRUM_KINDS for n in (2, 7, 64, 1024)]
_CONTROL_CASES += [("circ", 1), ("scirc", 1)]


@pytest.mark.parametrize("kind,n", _CONTROL_CASES)
def test_spectrum_rejects_a_perturbed_eigenvalue(capsys, monkeypatch, kind, n):
    # negative control: the last eigenvalue moved by 1e-6 * max(1, ||c||),
    # added rather than scaled, since r-even 2 has an all-zero spectrum
    def perturbed(spectrum):
        def wrapped(matrix):
            values = spectrum(matrix).copy()
            values[-1] += 1e-6 * max(1.0, float(np.linalg.norm(matrix.coeffs)))
            return values
        return wrapped

    for name in ("circ_spectrum", "scirc_spectrum"):
        monkeypatch.setattr(cli, name, perturbed(getattr(cli, name)))
    code, out, err = run_cli(capsys, *_spectrum_argv(kind, n))
    assert err == ""
    assert code == 1
    assert "status: fail" in out and "VIOLATED" in out


def _refuse(*args, **kwargs):
    raise AssertionError("called a dense builder")


@pytest.mark.parametrize("kind", cli.SPECTRUM_KINDS)
def test_spectrum_builds_no_dense_circulant(capsys, monkeypatch, kind):
    # show pi / show eta / show h still build them; spectrum checks with the
    # columns of F* alone, the skew twist going on the coefficients
    monkeypatch.setattr(cli, "circ_dense", _refuse)
    monkeypatch.setattr(cli, "scirc_dense", _refuse)
    monkeypatch.setattr(cli, "make_fourier_pack", _refuse)
    code, out, err = run_cli(capsys, *_spectrum_argv(kind, 1024))
    assert err == ""
    assert code == 0
    assert "status: pass" in out


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


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "scirc", "--format", "json", "--", "1e200,1e200"),
        ("spectrum", "circ", "--format", "json", "1e155"),
        ("spectrum", "circ", "--format", "json", "--", "1e308+1e308i"),
    ],
)
def test_spectrum_large_coefficients_whose_norm_fits_pass(capsys, argv):
    # the squares in the coefficient norm overflow, the norm, the bound and
    # the eigenvalues do not
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    report = strict_json(out)
    assert report["status"] == "pass"
    metric = report["metrics"][0]
    assert 0 <= metric["value"] <= metric["bound"] < float("inf")


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
