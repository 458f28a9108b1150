"""Each benchmark workload's full request list passes the benchmark's oracles.

``bench/oracles.py`` checks every output of a benchmark pass: report
headers, the verify metric names of ``VERIFY_METRICS``, each metric within
its bound, and each numerical result against an independent reference.
Running one full list per ``BENCHMARK.json`` workload here makes a renamed
metric, a changed header or a violated bound fail the tests, not a
benchmark run.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import centrocirc.cli  # noqa: E402,F401  (the worker calls it through sys.modules)

import workloads  # noqa: E402
from worker import run_requests  # noqa: E402

BENCHMARK_WORKLOADS = [w["name"] for w in
                       json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", BENCHMARK_WORKLOADS)
def test_benchmark_workload_passes_its_oracles(workload):
    requests = workloads.build(workload, 1)
    result = run_requests(requests)
    assert result["attempted"] == len(requests) >= 100
    assert result["failed"] == 0, result["failures"]
