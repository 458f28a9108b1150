"""Each benchmark workload's full request list passes the benchmark's oracles.

``bench/oracles.py`` checks every output of a benchmark pass: report
headers, the verify metric names of ``VERIFY_METRICS``, each metric within
its bound, and each numerical result against an independent reference.
Running one full list per ``BENCHMARK.json`` workload here makes a renamed
metric, a changed header or a violated bound fail the tests, not a
benchmark run.  No benchmark solve may fall back to the full LU either: the
oracles would still pass, while the solve would run one full-size LU in
place of two half-size ones.  And the verify oracle must reject a real
failing report, here one made by a wrong kernel.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import centrocirc.cli  # noqa: E402,F401  (the worker calls it through sys.modules)
from centrocirc import centro, verify  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402
from worker import call, run_requests  # noqa: E402

BENCHMARK_WORKLOADS = [w["name"] for w in
                       json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _count_solves(monkeypatch) -> dict:
    # calls of centro's half-size kernel, and calls of centro's solve_dense
    # made outside it: solve_centro_symmetric's full-LU fallback is the only
    # such call site
    counts = {"kernel": 0, "fallback": 0}
    depth = [0]
    kernel, dense = centro._solve_folded, centro.solve_dense

    def counted_kernel(*args):
        counts["kernel"] += 1
        depth[0] += 1
        try:
            return kernel(*args)
        finally:
            depth[0] -= 1

    def counted_dense(*args):
        if not depth[0]:
            counts["fallback"] += 1
        return dense(*args)

    monkeypatch.setattr(centro, "_solve_folded", counted_kernel)
    monkeypatch.setattr(centro, "solve_dense", counted_dense)
    return counts


@pytest.mark.parametrize("workload", BENCHMARK_WORKLOADS)
def test_benchmark_workload_passes_its_oracles(workload):
    requests = workloads.build(workload, 1)
    result = run_requests(requests)
    assert result["attempted"] == len(requests) >= 100
    assert result["failed"] == 0, result["failures"]


def test_no_benchmark_solve_falls_back_to_the_full_lu(monkeypatch):
    solves = [r for r in workloads.build("structured_large", 1)
              if r.func == "centro.solve_centro_symmetric"]
    assert len(solves) == len(workloads.SOLVE_SIZES) == 4
    counts = _count_solves(monkeypatch)
    result = run_requests(solves)
    assert result["failed"] == 0, result["failures"]
    assert counts == {"kernel": len(solves), "fallback": 0}


def test_verify_oracle_rejects_a_report_of_a_wrong_kernel(monkeypatch):
    # the failing input is a real report, not an option: verify has no --tol,
    # and its exact relation check is bounded by 0
    request = workloads.Request(key=(), check=None,
                                argv=("verify", "relation", "6..6", "--seed", "4"))
    assert oracles.check_verify("relation", 6, 4, call(request, None)) is None
    via_relation = verify.r_apply_via_relation
    monkeypatch.setattr(verify, "r_apply_via_relation",
                        lambda r, x: via_relation(r, x) * (1 + 2**-52))
    code, text = call(request, None)
    assert code == 1
    assert "status: fail" in text and "VIOLATED" in text
    assert oracles.check_verify("relation", 6, 4, (code, text)) is not None
    # the report itself is rejected, not only its exit code
    assert oracles.check_verify("relation", 6, 4, (0, text)) is not None
