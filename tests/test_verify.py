"""The named verification suites behind the command-line tool."""

import dataclasses
import functools
import json
import re

import numpy as np
import pytest

from centrocirc import (
    CentroSplit,
    EvenOddSplit,
    FourierPack,
    SingularMatrixError,
    block_form,
    centro,
    centro_split,
    circ_matvec,
    dense,
    even_odd_split,
    make_fourier_pack,
    nilpotent_realization,
    pi_minus_pit_coeffs,
    r_apply_via_relation,
    relation,
    solve_centro_symmetric,
    solve_dense,
    verify,
    verify_nilpotent,
)
from centrocirc.cli import main
from centrocirc.dense import _unitary_defect
from centrocirc.verify import (
    CENTRO_CHUNK_ENTRIES,
    CENTRO_SAMPLES,
    Metric,
    SUITE_NAMES,
    VERIFY_N_MAX,
    VERIFY_N_MIN,
    _fro_norms,
    _norms,
    centro_suite,
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


def test_reducer_keeps_the_largest_residual_and_any_nan_per_name():
    # under one name: finite then NaN, NaN then finite, a float then an
    # array, a NaN inside an array; names in first-yield order
    nan = float("nan")

    def suite(n_lo, n_hi):
        yield "finite_then_nan", np.array([1.0, 3.0]), 1.0
        yield "nan_then_finite", nan, 2.0
        yield "float_then_array", 0.5, 3.0
        yield "nan_in_array", 4.0, 4.0
        yield "finite_then_nan", nan, 1.0
        yield "nan_then_finite", np.array([5.0, 4.0]), 2.0
        yield "float_then_array", np.array([0.25, 0.75]), 3.0
        yield "nan_in_array", np.array([1.0, nan]), 4.0
        yield "float_then_array", 0.5, 3.0

    metrics = verify._reduced(suite)(2, 2)
    assert [m.name for m in metrics] == ["finite_then_nan", "nan_then_finite",
                                         "float_then_array", "nan_in_array"]
    assert [m.bound for m in metrics] == [1.0, 2.0, 3.0, 4.0]
    assert all(type(m.value) is float for m in metrics)
    assert np.isnan(metrics[0].value) and np.isnan(metrics[1].value)
    assert metrics[2].value == 0.75
    assert np.isnan(metrics[3].value)


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


EMPTY_RUNS = {
    **{suite: functools.partial(run_suite, suite, 5, 4, 0) for suite in SUITE_NAMES},
    "centro-no-samples": functools.partial(centro_suite, 2, 4, np.random.default_rng(0),
                                           samples=0),
}


@pytest.mark.parametrize("run", EMPTY_RUNS.values(), ids=EMPTY_RUNS)
def test_empty_range_or_sample_set_raises(run):
    # a metric over no samples would read 0.0 and pass
    with pytest.raises(ValueError):
        run()


# Pretty reports of ``verify {relation,centro} 2..12 --seed 5``.  One value
# may move, as the half-size solve rounds differently; its name and bound may
# not.  The exact checks read 0 against a bound of 0: the two R kernels and the
# five structural centro checks on integer draws, and the defect closed forms
# on halves that are bitwise (anti)palindromic.
PINNED_REPORTS = {
    "relation": """\
verify relation  (n = 2..12, seed = 5)
status: pass
  max_relation_residual_over_n_normx = 0.000000e+00  (bound 0.000000e+00, ok)
  max_defect_on_projected_parts = 0.000000e+00  (bound 0.000000e+00, ok)""",
    "centro": """\
verify centro  (n = 2..12, seed = 5)
status: pass
  max_projection_residual = 0.000000e+00  (bound 0.000000e+00, ok)
  max_multiplication_table_residual = 0.000000e+00  (bound 0.000000e+00, ok)
  max_action_parity_residual = 0.000000e+00  (bound 0.000000e+00, ok)
  max_block_structure_residual = 0.000000e+00  (bound 0.000000e+00, ok)
  max_solution_decomposition_residual = 0.000000e+00  (bound 0.000000e+00, ok)
  max_half_vs_full_solve_difference = 8.940133e-16  (bound 1.000000e-08, ok)""",
}
UNPINNED_VALUES = ("max_half_vs_full_solve_difference",)


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


CENTRO_EXACT_METRICS = ("max_projection_residual", "max_multiplication_table_residual",
                        "max_action_parity_residual", "max_block_structure_residual",
                        "max_solution_decomposition_residual")
RELATION_METRICS = ("max_relation_residual_over_n_normx", "max_defect_on_projected_parts")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_metrics_of_exact_halves_are_exactly_zero(seed):
    # a half is formed from x_i + x_j, which is bitwise x_j + x_i, so the
    # halves are exactly palindromic and their defects cancel to exactly 0;
    # on integer draws both R kernels and every sum and product of the centro
    # checks are exact
    relation = relation_suite(VERIFY_N_MIN, VERIFY_N_MAX, np.random.default_rng(seed))
    assert [(m.name, m.value, m.bound) for m in relation] == [
        (name, 0.0, 0.0) for name in RELATION_METRICS]
    centro_metrics = centro_suite(VERIFY_N_MIN, VERIFY_N_MAX, np.random.default_rng(seed),
                                  samples=10)
    assert [(m.name, m.value, m.bound) for m in centro_metrics[:5]] == [
        (name, 0.0, 0.0) for name in CENTRO_EXACT_METRICS]


@pytest.mark.parametrize("n,samples", [(200, 3), (512, 1)])
def test_centro_checks_stay_exact_beyond_the_command_line_cap(n, samples):
    # up to n = 512: the table's two chained matrix-vector products reach
    # entries of n^2 2^32 in steps of 1/8, exact while n^2 2^35 <= 2^53
    metrics = centro_suite(n, n, np.random.default_rng(0), samples=samples)
    assert [(m.name, m.value) for m in metrics[:5]] == [
        (name, 0.0) for name in CENTRO_EXACT_METRICS]


@pytest.mark.parametrize("n", [1024, 4097])
def test_relation_checks_stay_exact_beyond_the_command_line_cap(n):
    # the kernels only add, subtract, halve and flip signs: exact at every n
    metrics = relation_suite(n, n, np.random.default_rng(0))
    assert [(m.name, m.value) for m in metrics] == [(name, 0.0) for name in RELATION_METRICS]


def _metric(metrics, name):
    return next(m for m in metrics if m.name == name)


def _nan_first(a):
    # a copy of a stack whose first entry is NaN: one bad sample among good ones
    a = np.array(a)
    a.flat[0] = np.nan
    return a


def _swapped_split(x):
    split = even_odd_split(x)
    return EvenOddSplit(even=split.odd, odd=split.even)


def _nan_split(x):
    split = even_odd_split(x)
    return EvenOddSplit(even=_nan_first(split.even), odd=split.odd)


def _odd_half_not_antipalindromic(x):
    # the even half kept; the odd half's first entry negated, so o_n + o_1
    # becomes 2 o_n: only the odd-half defect term can see it
    split = even_odd_split(x)
    odd = np.array(split.odd)
    odd[..., 0] *= -1
    return EvenOddSplit(even=split.even, odd=odd)


def _perturbed_relation_product(r, x):
    return r_apply_via_relation(r, x) * (1 + 1e-6)


def _one_ulp_relation_product(r, x):
    # every nonzero entry moved by an ulp or two: only a bound of 0 sees it
    return r_apply_via_relation(r, x) * (1 + 2**-52)


def _nan_relation_product(r, x):
    return _nan_first(r_apply_via_relation(r, x))


def _pi_on_both_halves(r, x):
    # the wrong generator on the odd half: pi - pi^T applied to all of x
    return circ_matvec(pi_minus_pit_coeffs(r.n), x)


def _scaled_pack(n):
    pack = make_fourier_pack(n)
    return FourierPack(f_star=pack.f_star, h_star=pack.h_star * (1 + 1e-9))


def _nan_pack(n):
    pack = make_fourier_pack(n)
    return FourierPack(f_star=pack.f_star, h_star=_nan_first(pack.h_star))


def _identity(n):
    return np.eye(n, dtype=np.complex128)


def _wrong_and_nan(wrong, nan):
    # (stand-in, n): a wrong result at every size (ids "n"), then a NaN one
    # (ids "nan-n"), which a max that drops NaN would pass
    return ([pytest.param(wrong, n, id=str(n)) for n in VERIFY_SIZES]
            + [pytest.param(nan, n, id=f"nan-{n}") for n in VERIFY_SIZES])


# Negative controls: each metric rejects a known-bad input at every size the
# command line accepts.

@pytest.mark.parametrize("bad,n", _wrong_and_nan(_perturbed_relation_product,
                                                 _nan_relation_product)
                         + [pytest.param(_pi_on_both_halves, n, id=f"pi-on-odd-{n}")
                            for n in VERIFY_SIZES]
                         + [pytest.param(_one_ulp_relation_product, n, id=f"ulp-{n}")
                            for n in VERIFY_SIZES])
def test_relation_metric_rejects_bad_relation_product(monkeypatch, bad, n):
    monkeypatch.setattr(verify, "r_apply_via_relation", bad)
    metrics = relation_suite(n, n, np.random.default_rng(n))
    assert not _metric(metrics, "max_relation_residual_over_n_normx").ok


@pytest.mark.parametrize("bad,n", _wrong_and_nan(_swapped_split, _nan_split)
                         + [pytest.param(_odd_half_not_antipalindromic, n, id=f"odd-{n}")
                            for n in VERIFY_SIZES])
def test_defect_metric_rejects_swapped_split(monkeypatch, bad, n):
    monkeypatch.setattr(verify, "even_odd_split", bad)
    metrics = relation_suite(n, n, np.random.default_rng(n))
    assert not _metric(metrics, "max_defect_on_projected_parts").ok


@pytest.mark.parametrize("bad,n", _wrong_and_nan(_scaled_pack, _nan_pack))
def test_unitary_metric_rejects_scaled_twisted_transform(monkeypatch, bad, n):
    monkeypatch.setattr(verify, "make_fourier_pack", bad)
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


def _unscaled_split(x):
    rx = x[..., ::-1]
    return EvenOddSplit(even=x + rx, odd=x - rx)


def _adjoint_split(x):
    # conjugation by the adjoint instead of E: Hermitian and skew-Hermitian
    # parts (at n = 2 the skew part of the plain transpose is centro-skew)
    xh = np.swapaxes(x, -1, -2).conj()
    return CentroSplit(sym=(x + xh) / 2, skew=(x - xh) / 2)


def _nan_parity_split(x):
    # unchecked, as the suite also splits the halves this returns
    rx = x[..., ::-1]
    return EvenOddSplit(even=_nan_first((x + rx) / 2), odd=(x - rx) / 2)


def _nan_centro_split(x):
    parts = centro_split(x)
    return CentroSplit(sym=_nan_first(parts.sym), skew=_nan_first(parts.skew))


def _perturbed_half_solve(a, w):
    return solve_centro_symmetric(a, w) * (1 + 1e-6)


def _nan_half_solve(a, w):
    return _nan_first(solve_centro_symmetric(a, w))


# the centro suite's metric -> (the name in verify to replace, a wrong stand-in,
# a NaN stand-in)
CENTRO_CONTROLS = {
    "max_projection_residual": ("_split_parity", _unscaled_split, _nan_parity_split),
    "max_multiplication_table_residual": ("_split_centro", _adjoint_split, _nan_centro_split),
    "max_action_parity_residual": ("_split_centro", _adjoint_split, _nan_centro_split),
    "max_block_structure_residual": ("_split_centro", _adjoint_split, _nan_centro_split),
    "max_solution_decomposition_residual": ("_split_centro", _adjoint_split, _nan_centro_split),
    "max_half_vs_full_solve_difference": ("_solve_folded", _perturbed_half_solve,
                                          _nan_half_solve),
}
CENTRO_CASES = [
    case
    for metric, (name, wrong, nan) in CENTRO_CONTROLS.items()
    for case in (pytest.param(metric, name, wrong, id=metric),
                 pytest.param(metric, name, nan, id=f"{metric}-nan"))
]


@pytest.mark.parametrize("n", VERIFY_SIZES)
@pytest.mark.parametrize("metric,name,bad", CENTRO_CASES)
def test_centro_metric_rejects_known_bad_input(monkeypatch, metric, name, bad, n):
    monkeypatch.setattr(verify, name, bad)
    metrics = centro_suite(n, n, np.random.default_rng(n), samples=2)
    assert not _metric(metrics, metric).ok


def _one_ulp_off(split, half):
    # the split with one half scaled by 1 + 2^-52: each nonzero entry moves by
    # an ulp or two, which no round-off bound can tell from round-off
    def scaled(x):
        parts = split(x)
        return dataclasses.replace(parts, **{half: getattr(parts, half) * (1 + 2.0 ** -52)})
    return scaled


def _swapped_centro_split(x):
    parts = centro._split_centro(x)
    return CentroSplit(sym=parts.skew, skew=parts.sym)


# (the metric, the name in verify to replace, a stand-in that only a bound of
# 0 rejects, or a swap that only block structure sees: products of the
# swapped halves keep the parities of the multiplication table)
EXACT_CONTROLS = [
    pytest.param(metric, name, _one_ulp_off(getattr(centro, name), half),
                 id=f"{name}-{half}-ulp")
    for metric, name, halves in (("max_projection_residual", "_split_parity", ("even", "odd")),
                                 ("max_multiplication_table_residual", "_split_centro",
                                  ("sym", "skew")))
    for half in halves
] + [pytest.param("max_block_structure_residual", "_split_centro", _swapped_centro_split,
                  id="_split_centro-swapped")]


@pytest.mark.parametrize("n", VERIFY_SIZES)
@pytest.mark.parametrize("metric,name,bad", EXACT_CONTROLS)
def test_exact_centro_metric_rejects_a_one_ulp_or_swapped_split(monkeypatch, metric, name,
                                                                 bad, n):
    monkeypatch.setattr(verify, name, bad)
    metrics = centro_suite(n, n, np.random.default_rng(n), samples=2)
    assert not _metric(metrics, metric).ok


def _doubled_centro_split(x):
    # both halves doubled: every parity holds, but the halves sum to 2A
    parts = centro._split_centro(x)
    return CentroSplit(sym=2 * parts.sym, skew=2 * parts.skew)


def _unit_moved_centro_split(x):
    # one integer unit at entry (0, 0) moved from skew to sym: the halves
    # still sum back to A, but sym is no longer centro-symmetric
    parts = centro._split_centro(x)
    sym, skew = parts.sym.copy(), parts.skew.copy()
    sym[..., 0, 0] += 1
    skew[..., 0, 0] -= 1
    return CentroSplit(sym=sym, skew=skew)


@pytest.mark.parametrize("n", VERIFY_SIZES)
@pytest.mark.parametrize("bad", [_doubled_centro_split, _unit_moved_centro_split],
                         ids=["doubled", "unit-moved"])
def test_multiplication_table_rejects_halves_that_miss_the_sum_or_a_parity(monkeypatch,
                                                                           bad, n):
    # the doubled split fails only the sum back to A, the moved unit only
    # the parity of the products read through x
    monkeypatch.setattr(verify, "_split_centro", bad)
    metrics = centro_suite(n, n, np.random.default_rng(n), samples=2)
    assert not _metric(metrics, "max_multiplication_table_residual").ok


@pytest.mark.parametrize("n", VERIFY_SIZES)
def test_centro_suite_raises_on_a_half_size_solve_from_the_wrong_blocks(monkeypatch, n):
    # the off-diagonal blocks in place of the diagonal ones: singular at even
    # n, not square at odd n.  The public solver would fall back to the full
    # LU and pass, so this fails unless the suite runs the kernel itself
    block_pair = centro._block_pair
    monkeypatch.setattr(centro, "_block_pair",
                        lambda x, diagonal: block_pair(x, diagonal=not diagonal))
    expected = (pytest.raises(SingularMatrixError) if n % 2 == 0
                else pytest.raises(ValueError, match="expected a square matrix"))
    with expected:
        centro_suite(n, n, np.random.default_rng(n), samples=2)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


# (suite, the name in verify to replace, a NaN stand-in, the metric it makes NaN)
NAN_REPORTS = [
    ("relation", "r_apply_via_relation", _nan_relation_product,
     "max_relation_residual_over_n_normx"),
    ("relation", "even_odd_split", _nan_split, "max_defect_on_projected_parts"),
    ("unitary", "make_fourier_pack", _nan_pack, "max_unitary_defect_over_n"),
] + [("centro", name, nan, metric) for metric, (name, _, nan) in CENTRO_CONTROLS.items()]


@pytest.mark.parametrize("suite,name,bad,metric", NAN_REPORTS,
                         ids=[case[3] for case in NAN_REPORTS])
def test_nan_metric_is_json_null(monkeypatch, capsys, suite, name, bad, metric):
    monkeypatch.setattr(verify, name, bad)
    assert main(["verify", suite, "2..3", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert report["status"] == "fail"
    values = {m["name"]: m["value"] for m in report["metrics"]}
    assert values[metric] is None
    assert main(["verify", suite, "2..3"]) == 1
    assert f"  {metric} = nan  (bound" in capsys.readouterr().out


def _reference_centro_suite(n, rng):
    """The centro suite's six values at one n, the long way: the public,
    checked even_odd_split, centro_split and block_form, with both halves of
    every split and all four blocks built."""
    worst = dict.fromkeys(CENTRO_CONTROLS, 0.0)

    def record(metric, values):
        worst[metric] = max(worst[metric], float(np.max(values)))

    def norms(v):
        # one real dot product per vector of the float64 view: the sum of
        # re^2 + im^2 over its entries
        flat = np.ascontiguousarray(v).view(np.float64)
        rows = flat.reshape(-1, flat.shape[-1])
        return np.sqrt([row @ row for row in rows]).reshape(flat.shape[:-1])

    def fro(m):
        return norms(m.reshape(m.shape[:-2] + (-1,)))

    def matvecs(a, v):
        return (a @ v[..., None])[..., 0]

    chunk = max(1, CENTRO_CHUNK_ENTRIES // (n * n))
    for start in range(0, CENTRO_SAMPLES, chunk):
        k = min(chunk, CENTRO_SAMPLES - start)
        draws = rng.integers(-1024, 1025, (k, 2 * n + 4 * n * n), dtype=np.int32)
        x = draws[:, :n] + 1j * draws[:, n:2 * n]
        split = even_odd_split(x)
        of_even, of_odd = even_odd_split(split.even), even_odd_split(split.odd)
        residual = norms(split.even + split.odd - x)
        residual += norms(of_even.even - split.even)
        residual += norms(of_even.odd)
        residual += norms(of_odd.odd - split.odd)
        residual += norms(of_odd.even)
        record("max_projection_residual", residual)

        mats = draws[:, 2 * n:].reshape(k, 4, n, n)
        parts = centro_split(mats[:, 0] + 1j * mats[:, 1])
        other = centro_split(mats[:, 2] + 1j * mats[:, 3])
        table = fro(centro_split(parts.sym @ other.sym).skew)
        table += fro(centro_split(parts.sym @ other.skew).sym)
        table += fro(centro_split(parts.skew @ other.sym).sym)
        table += fro(centro_split(parts.skew @ other.skew).skew)
        record("max_multiplication_table_residual", table)

        parity = norms(even_odd_split(matvecs(parts.sym, split.even)).odd)
        parity += norms(even_odd_split(matvecs(parts.sym, split.odd)).even)
        parity += norms(even_odd_split(matvecs(parts.skew, split.even)).even)
        parity += norms(even_odd_split(matvecs(parts.skew, split.odd)).odd)
        record("max_action_parity_residual", parity)

        _, b12, b21, _ = block_form(parts.sym)
        k11, _, _, k22 = block_form(parts.skew)
        blocks = fro(b12) + fro(b21)
        blocks += fro(k11) + fro(k22)
        record("max_block_structure_residual", blocks)

        wsplit = even_odd_split(matvecs(parts.skew, x))
        decomp = norms(matvecs(parts.skew, split.even) - wsplit.odd)
        decomp += norms(matvecs(parts.skew, split.odd) - wsplit.even)
        record("max_solution_decomposition_residual", decomp)

    while True:
        sym = centro_split(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))).sym
        try:
            solve_dense(sym, np.ones(n, dtype=np.complex128))
            break
        except SingularMatrixError:
            continue
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    z_full = solve_dense(sym, w)
    z_half = solve_centro_symmetric(sym, w)
    record("max_half_vs_full_solve_difference",
           np.linalg.norm(z_half - z_full) / (1.0 + np.linalg.norm(z_full)))
    return worst


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("n", [2, 3, 7, 16, 33, 64])
def test_centro_suite_values_equal_the_checked_reference(n, seed):
    metrics = centro_suite(n, n, np.random.default_rng(seed))
    expected = _reference_centro_suite(n, np.random.default_rng(seed))
    assert {m.name: m.value for m in metrics} == expected


def test_random_full_solve_retries_a_singular_draw(monkeypatch):
    drawn = []

    def singular_once(a, w):
        drawn.append(a)
        if len(drawn) == 1:
            raise SingularMatrixError("drawn singular")
        return solve_dense(a, w)

    monkeypatch.setattr(verify, "solve_dense", singular_once)
    sym, w, z = verify._random_full_solve(np.random.default_rng(3), 5)
    # the retry solves a fresh draw, not the rejected one again
    assert len(drawn) == 2 and sym is drawn[1]
    assert not np.array_equal(drawn[0], drawn[1])
    assert centro.is_centro_symmetric(sym)
    np.testing.assert_allclose(sym @ z, w, atol=1e-10)


def test_random_full_solve_gives_up_on_always_singular_draws(monkeypatch):
    def always_singular(a, w):
        raise SingularMatrixError("drawn singular")

    monkeypatch.setattr(verify, "solve_dense", always_singular)
    with pytest.raises(RuntimeError, match="nonsingular centro-symmetric"):
        verify._random_full_solve(np.random.default_rng(3), 5)


def test_real_dot_norms_agree_with_numpy_norm():
    rng = np.random.default_rng(17)
    worst = 0.0
    for n in range(1, 65):
        vectors = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
        matrices = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
        for got, want in ((_norms(vectors), np.linalg.norm(vectors, axis=-1)),
                          (_fro_norms(matrices), np.linalg.norm(matrices, axis=(-2, -1)))):
            assert got.shape == want.shape
            worst = max(worst, float(np.max(np.abs(got - want) / want)))
    assert worst <= 1e-15
    # the float64 views need no particular layout: a transposed or reversed
    # stack gives the bits of its C-ordered copy
    for norm, stack in ((_fro_norms, matrices.swapaxes(-1, -2)), (_norms, vectors[:, ::-1])):
        assert norm(stack).tobytes() == norm(stack.copy()).tobytes()


def test_centro_suite_checks_only_the_solver_inputs(monkeypatch):
    # as_vector/as_matrix run inside the two solvers, a fixed number of times
    # per size, and never on a chunk: 2 samples in one chunk and 50 in 13
    # chunks at n = 64 make the same number of calls
    calls = []
    for module in (dense, centro):
        for name in ("as_vector", "as_matrix"):
            check = getattr(dense, name)
            monkeypatch.setattr(module, name,
                                lambda *args, _check=check: calls.append(1) or _check(*args))
    counts = []
    for samples in (2, CENTRO_SAMPLES):
        calls.clear()
        centro_suite(64, 64, np.random.default_rng(1), samples=samples)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


class _NoSquareProducts(np.ndarray):
    """A stack on which np.matmul fails once the result's last two axes both
    exceed 7: a matrix may meet up to seven vectors, never another matrix."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        def plain(a):
            return a.view(np.ndarray) if isinstance(a, _NoSquareProducts) else a
        if "out" in kwargs:
            kwargs["out"] = tuple(plain(a) for a in kwargs["out"])
        result = getattr(ufunc, method)(*map(plain, inputs), **kwargs)
        if ufunc is np.matmul and min(np.shape(result)[-2:]) > 7:
            raise AssertionError(f"a product of square matrices, {np.shape(result)}")
        return result


def test_centro_suite_forms_no_product_of_two_matrices(monkeypatch):
    # the multiplication table costs O(n^2) per sample, not O(n^3)
    def guarded(x):
        parts = centro._split_centro(x)
        return CentroSplit(sym=parts.sym.view(_NoSquareProducts),
                           skew=parts.skew.view(_NoSquareProducts))

    square = guarded(np.ones((8, 8), dtype=np.complex128))
    with pytest.raises(AssertionError, match="square matrices"):
        square.sym @ square.skew
    monkeypatch.setattr(verify, "_split_centro", guarded)
    for metric in centro_suite(64, 64, np.random.default_rng(64)):
        assert metric.ok, f"{metric.name}: {metric.value} > {metric.bound}"


def test_complex_lanes_hold_the_bits_of_re_plus_1j_im():
    # int32 draws, zeros among them, and the normals of _complex_rows
    rng = np.random.default_rng(4)
    for n in VERIFY_SIZES:
        draws = rng.integers(-1024, 1025, (3, 2 * n + 4 * n * n), dtype=np.int32)
        mats = draws[:, 2 * n:].reshape(3, 4, n, n)
        normals = rng.standard_normal((3, 2 * n))
        for real, imag in ((draws[:, :n], draws[:, n:2 * n]), (mats[:, 0], mats[:, 1]),
                           (mats[:, 2], mats[:, 3]), (normals[:, :n], normals[:, n:])):
            assert verify._complex(real, imag).tobytes() == (real + 1j * imag).tobytes()
    assert (draws == 0).any()


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


def test_unitary_suite_reports_the_unitary_defect(monkeypatch):
    # the suite's value is ||U U* - I||_F / n, on the exact transforms and on a scaled H*
    for n in VERIFY_SIZES:
        for build in (make_fourier_pack, _scaled_pack):
            pack = build(n)
            monkeypatch.setattr(verify, "make_fourier_pack", lambda n, p=pack: p)
            metric = unitary_suite(n, n)[0]
            assert metric.value == max(_unitary_defect(pack.f_star),
                                       _unitary_defect(pack.h_star)) / n


def test_verify_leaves_blas_workers_idle(blas_workers_spin):
    # verify's products stay under OpenBLAS's threading floor, so no worker
    # thread spins after a request.  One 128 x 128 complex product must wake
    # it here, or this BLAS (or one core, or one thread) cannot show it
    square = np.ones((128, 128), dtype=np.complex128)
    if blas_workers_spin(lambda: square @ square) < 0.5:
        pytest.skip("no BLAS worker thread spins after a 128 x 128 complex product")
    for command in ("nilpotent 41..64", "unitary 41..64", "centro 64..64", "all 64..64"):
        spin = blas_workers_spin(functools.partial(main, ["verify", *command.split()]))
        assert spin < 0.5, f"verify {command}: {spin:.2f} CPU-s per s after it"
