"""The named verification suites behind the command-line tool."""

import re

import numpy as np
import pytest

from centrocirc.cli import main
from centrocirc.verify import (
    Metric,
    SUITE_NAMES,
    ramp_even,
    ramp_odd,
    run_suite,
)


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
