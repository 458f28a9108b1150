"""The named verification suites behind the command-line tool."""

import re

import numpy as np
import pytest

from centrocirc import (
    EvenOddSplit,
    FourierPack,
    Tolerance,
    centro,
    even_odd_split,
    is_unitary,
    make_fourier_pack,
    nilpotent_realization,
    relation,
    verify,
    verify_nilpotent,
)
from centrocirc.cli import main
from centrocirc.dense import _unitary_defect
from centrocirc.verify import (
    Metric,
    SUITE_NAMES,
    VERIFY_N_MAX,
    VERIFY_N_MIN,
    nilpotent_suite,
    ramp_even,
    ramp_odd,
    relation_suite,
    run_suite,
    unitary_suite,
)

VERIFY_SIZES = range(VERIFY_N_MIN, VERIFY_N_MAX + 1)


def test_metric_ok_is_inclusive():
    assert Metric("m", 1.0, 1.0).ok
    assert Metric("m", 0.0, 1.0).ok
    assert not Metric("m", np.nextafter(1.0, 2.0), 1.0).ok


def test_ramps_frozen_5():
    np.testing.assert_array_equal(ramp_even(5), [1, 2, 3, 2, 1])
    np.testing.assert_array_equal(ramp_odd(5), [1, 2, 0, -2, -1])


def test_ramps_frozen_4():
    np.testing.assert_array_equal(ramp_even(4), [1, 2, 2, 1])
    np.testing.assert_array_equal(ramp_odd(4), [1, 2, -2, -1])


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_each_suite_passes_on_small_range(suite):
    metrics = run_suite(suite, 2, 8, seed=424242)
    assert metrics
    for metric in metrics:
        assert metric.ok, f"{metric.name}: {metric.value} > {metric.bound}"


def test_run_suite_is_deterministic_for_a_seed():
    a = run_suite("relation", 2, 6, seed=99)
    b = run_suite("relation", 2, 6, seed=99)
    assert [(m.name, m.value, m.bound) for m in a] == [
        (m.name, m.value, m.bound) for m in b
    ]


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_suite("everything", 2, 4, seed=1)


# Pretty reports of ``verify {relation,centro} 2..12 --seed 5`` as printed by
# the per-sample suites, before they were evaluated as stacks.  Two values
# may move: folding an exactly centro-symmetric matrix cancels bit for bit,
# and the half-size solve rounds differently.  Their names and bounds may not.
PINNED_REPORTS = {
    "relation": """\
verify relation  (n = 2..12, seed = 5)
status: pass
  max_relation_residual_over_n_normx = 4.090897e-16  (bound 1.000000e-10, ok)
  max_defect_on_projected_parts = 0.000000e+00  (bound 1.000000e-12, ok)""",
    "centro": """\
verify centro  (n = 2..12, seed = 5)
status: pass
  max_projection_residual = 1.330081e-16  (bound 1.000000e-12, ok)
  max_multiplication_table_residual = 6.608434e-17  (bound 1.000000e-11, ok)
  max_action_parity_residual = 7.943397e-17  (bound 1.000000e-12, ok)
  max_block_structure_residual = 9.478126e-17  (bound 1.000000e-12, ok)
  max_solution_decomposition_residual = 2.377304e-16  (bound 1.000000e-12, ok)
  max_half_vs_full_solve_difference = 7.752730e-16  (bound 1.000000e-08, ok)""",
}
UNPINNED_VALUES = ("max_block_structure_residual", "max_half_vs_full_solve_difference")


@pytest.mark.parametrize("suite", sorted(PINNED_REPORTS))
def test_pretty_report_is_pinned(capsys, suite):
    assert main(["verify", suite, "2..12", "--seed", "5"]) == 0
    lines = capsys.readouterr().out.rstrip("\n").split("\n")
    pinned = PINNED_REPORTS[suite].split("\n")
    assert len(lines) == len(pinned)
    for line, expected in zip(lines, pinned):
        head, _, rest = expected.partition(" = ")
        if head.strip() in UNPINNED_VALUES:
            tail = rest[rest.index("  (bound"):]
            assert re.fullmatch(re.escape(head) + r" = \S+" + re.escape(tail), line)
        else:
            assert line == expected


def _metric(metrics, name):
    return next(m for m in metrics if m.name == name)


def _swapped_split(x):
    split = even_odd_split(x)
    return EvenOddSplit(even=split.odd, odd=split.even)


def _scaled_pack(n):
    pack = make_fourier_pack(n)
    return FourierPack(n=n, f_star=pack.f_star, h_star=pack.h_star * (1 + 1e-9))


def _identity(n):
    return np.eye(n, dtype=np.complex128)


# Negative controls: each metric rejects a known-bad input at every size the
# command line accepts.

@pytest.mark.parametrize("n", VERIFY_SIZES)
def test_defect_metric_rejects_swapped_split(monkeypatch, n):
    monkeypatch.setattr(verify, "even_odd_split", _swapped_split)
    metrics = relation_suite(n, n, np.random.default_rng(n))
    assert not _metric(metrics, "max_defect_on_projected_parts").ok


@pytest.mark.parametrize("n", VERIFY_SIZES)
def test_unitary_metric_rejects_scaled_twisted_transform(monkeypatch, n):
    monkeypatch.setattr(verify, "make_fourier_pack", _scaled_pack)
    assert not _metric(unitary_suite(n, n), "max_unitary_defect_over_n").ok


NILPOTENT_BOUND_TOO_LOOSE = pytest.mark.xfail(strict=True, reason=(
    "the powering bound 1e-8 * max(1, ||A||_F)**n exceeds ||I**n||_F = sqrt(n) "
    "from n = 15 on: the FOUND line on verify_nilpotent in CHANGES.md, ROADMAP "
    "open item 1"))


@pytest.mark.parametrize("n", [n if n <= 14 else pytest.param(n, marks=NILPOTENT_BOUND_TOO_LOOSE)
                               for n in VERIFY_SIZES])
def test_nilpotent_metric_rejects_identity(monkeypatch, n):
    monkeypatch.setattr(verify, "nilpotent_realization", _identity)
    assert not _metric(nilpotent_suite(n, n), f"nilpotent_power_norm_n{n}").ok


def _refuse(*args, **kwargs):
    raise AssertionError("called a dense builder")


@pytest.mark.parametrize("suite", ["relation", "centro"])
def test_relation_and_centro_suites_build_no_dense_r_defects_or_basis(monkeypatch, suite):
    for name in ("r_dense", "rank_one_defects", "even_odd_basis"):
        for module in (relation, centro, verify):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _refuse)
    for metric in run_suite(suite, VERIFY_N_MIN, VERIFY_N_MAX, seed=3):
        assert metric.ok, f"{metric.name}: {metric.value} > {metric.bound}"


def test_nilpotent_suite_and_verify_nilpotent_agree(monkeypatch):
    # one powering check behind both, on the realization and on the identity
    for n in VERIFY_SIZES:
        for matrix in (nilpotent_realization(n), _identity(n)):
            monkeypatch.setattr(verify, "nilpotent_realization", lambda n, m=matrix: m)
            metric = _metric(nilpotent_suite(n, n), f"nilpotent_power_norm_n{n}")
            assert metric.ok == verify_nilpotent(matrix)


def test_unitary_suite_and_is_unitary_agree(monkeypatch):
    # one defect behind both, on the exact transforms and on a scaled H*
    for n in VERIFY_SIZES:
        for build in (make_fourier_pack, _scaled_pack):
            pack = build(n)
            monkeypatch.setattr(verify, "make_fourier_pack", lambda n, p=pack: p)
            metric = unitary_suite(n, n)[0]
            matrices = (pack.f_star, pack.h_star)
            assert metric.value == max(_unitary_defect(u) for u in matrices) / n
            tol = Tolerance(abs_eps=0.0, rel_eps=metric.bound)
            assert metric.ok == all(is_unitary(u, tol) for u in matrices)
