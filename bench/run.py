"""The centrocirc benchmark: one command for every workload and metric.

Usage, from the root of a checkout::

    python3 bench/run.py --workload verify_sweep --seed 1 --seconds 60 --trace 0

A run makes passes for about ``--seconds`` (at least ``MIN_PASSES``).  Each
pass is a fresh process (``worker.py``) that times ``import centrocirc,
centrocirc.cli`` and then sends the workload's request list as a closed
loop with one client, checking every output against the oracles in
``oracles.py``.  Every pass of a run sends the same list, so the first-call
costs a CLI user pays in every process are counted.  On a machine whose
speed drifts with its neighbours' load, the least latency of each request
over the passes is far steadier than any pass's total, so latency and CPU
time are best-of-passes per request; set-up time and peak RSS are medians
over the passes.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics, with the traced wall time over the untraced one as
``trace.overhead``.  The names and units come from ``BENCHMARK.json``.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = BENCH / "out"
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
PASS_TIMEOUT_S = 120
MIB = 1 << 20
# glibc sysconf names for the L2 and L3 sizes, which the os module lacks.
SC_LEVEL2_CACHE_SIZE, SC_LEVEL3_CACHE_SIZE = 191, 194


class PassError(RuntimeError):
    """A pass process failed or printed no result."""


def cache_size(name: int):
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.argtypes, libc.sysconf.restype = [ctypes.c_int], ctypes.c_long
        size = libc.sysconf(name)
    except (OSError, AttributeError):
        return None
    return size if size > 0 else None


def worker_env(nproc: int) -> dict:
    """PYTHONPATH at the source tree and BLAS threads capped at nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = env.get(var, "")
        cap = int(current) if current.isdigit() and int(current) > 0 else nproc
        env[var] = str(min(cap, nproc))
    return env


def run_pass(workload: str, seed: int, traced: bool, env: dict, spans=None) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassError(f"pass did not finish within {PASS_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: bool, env: dict):
    """Passes for about ``seconds``; traced ones alternate when tracing.

    Once the minimum is met, a pass starts only if one more of average
    length still ends within ``seconds``, so a run overshoots by little.
    """
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        spans = None
        if traced and not any(p["traced"] for p in passes):
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"spans_{workload}_seed{seed}.csv"
        passes.append(run_pass(workload, seed, traced, env, spans))
        elapsed = time.perf_counter() - start
        plain = sum(not p["traced"] for p in passes)
        enough = plain >= (MIN_TRACED_PASSES if trace else MIN_PASSES)
        if trace:
            enough = enough and len(passes) - plain >= MIN_TRACED_PASSES
        if enough and elapsed * (1 + 1 / len(passes)) > seconds:
            return passes


def best_of_passes(passes: list[dict], key: str) -> list[float]:
    """Per request, the least value over the passes that sent it."""
    return [min(values) for values in zip(*(p[key] for p in passes))]


def end_to_end(passes: list[dict]) -> dict:
    """Latency and CPU are best-of-passes per request, summed for the list;
    set-up time and peak RSS are medians over the passes."""
    latencies = best_of_passes(passes, "latencies_ms")
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": sum(latencies) / 1e3,
        "req_p50_ms": statistics.median(latencies),
        "req_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "cpu_s": sum(best_of_passes(passes, "cpu_ms")) / 1e3,
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
    }


def count_table(p: dict) -> dict:
    return {name: (f["calls"], f["errors"], f["out_bytes"])
            for name, f in p["functions"].items()}


def per_layer(traced: list[dict], plain: list[dict]) -> dict:
    """Every per-layer metric: layers, functions, stdout size and trace ratios."""
    first = traced[0]["functions"]
    self_s = {name: statistics.median(p["functions"][name]["self_s"] for p in traced)
              for name in first}
    metrics = {}
    for layer in LAYERS:
        names = [n for n in first if n.split(".")[0] == layer]
        metrics[f"{layer}.calls"] = sum(first[n]["calls"] for n in names)
        metrics[f"{layer}.self_s"] = sum(self_s[n] for n in names)
        metrics[f"{layer}.errors"] = sum(first[n]["errors"] for n in names)
        metrics[f"{layer}.out_mib"] = sum(first[n]["out_bytes"] for n in names) / MIB
    for name, f in first.items():
        metrics[f"{name}.calls"] = f["calls"]
        metrics[f"{name}.self_s"] = self_s[name]
        metrics[f"{name}.errors"] = f["errors"]
        metrics[f"{name}.out_mib"] = f["out_bytes"] / MIB
    metrics["cli.stdout_mib"] = traced[0]["stdout_bytes"] / MIB
    metrics["trace.coverage"] = statistics.median(
        sum(f["self_s"] for f in p["functions"].values()) / p["wall_s"] for p in traced)
    metrics["trace.overhead"] = (sum(best_of_passes(traced, "latencies_ms"))
                                 / sum(best_of_passes(plain, "latencies_ms")))
    return metrics


def environment(nproc: int, env: dict, versions: dict) -> dict:
    l2, l3 = cache_size(SC_LEVEL2_CACHE_SIZE), cache_size(SC_LEVEL3_CACHE_SIZE)
    return {
        **versions,
        "nproc": nproc,
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        "l2_mib": l2 / MIB if l2 else None,
        "l3_mib": l3 / MIB if l3 else None,
        "note": f"{nproc} cores shared with other tenants; timings are noisy",
    }


def print_function_table(metrics: dict) -> None:
    print(f"{'function':<40} {'calls':>9} {'self_s':>10} {'errors':>6} {'out_mib':>10}")
    names = sorted({k.rsplit(".", 1)[0] for k in metrics if k.count(".") == 2},
                   key=lambda n: -metrics[f"{n}.self_s"])
    for name in names:
        if metrics[name + ".calls"]:
            print(f"{name:<40} {metrics[name + '.calls']:>9} "
                  f"{metrics[name + '.self_s']:>10.4f} {metrics[name + '.errors']:>6} "
                  f"{metrics[name + '.out_mib']:>10.3f}")
    print("not called: " + " ".join(n for n in sorted(names) if not metrics[n + ".calls"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "centrocirc" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'centrocirc'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    nproc = len(os.sched_getaffinity(0))
    env = worker_env(nproc)
    # Compile once up front so that no pass pays for writing bytecode.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], check=True,
                   stdout=subprocess.DEVNULL)
    try:
        passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace), env)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0

    print("env " + json.dumps(environment(nproc, env, passes[0]["versions"])))
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} passes"
          f" + {len(traced)} traced, {plain[0]['attempted']} requests per pass,"
          f" closed loop with 1 client, repeat_share {plain[0]['repeat_share']:.4f}")
    for failure in [f for p in passes for f in p["failures"]][:10]:
        print(f"failed request: {failure}")

    e2e = end_to_end(plain)
    best = best_of_passes(plain, "latencies_ms")
    beyond = sum(t > e2e["req_p90_ms"] for t in best)
    for m in spec["end_to_end"]:
        print(f"{m['name']:<16} {e2e[m['name']]:>12.6g} {m['unit']}")
    print(f"{'failed_frac':<16} {failed / attempted:>12.6g} ratio"
          f" ({failed} failed of {attempted} attempted)")
    print(f"latency samples {len(best)} (best of {len(plain)} passes per request),"
          f" {beyond} beyond p90")
    print("wall_s per pass " + " ".join(f"{p['wall_s']:.4f}" for p in plain))

    if args.trace:
        layer_metrics = per_layer(traced, plain)
        counts = [count_table(p) for p in traced]
        if any(c != counts[0] for c in counts[1:]):
            correct = False
            print("count metrics differ between traced passes of the same seed")
        print_function_table(layer_metrics)
        for layer in LAYERS:
            print(f"layer {layer:<10} calls {layer_metrics[layer + '.calls']:>9}"
                  f"  self_s {layer_metrics[layer + '.self_s']:.4f}"
                  f"  errors {layer_metrics[layer + '.errors']}"
                  f"  out_mib (computed) {layer_metrics[layer + '.out_mib']:.3f}")
        for name in ("cli.stdout_mib", "trace.coverage", "trace.overhead"):
            print(f"{name} {layer_metrics[name]:.6g}")
        chosen, values = spec["per_layer"], layer_metrics
    else:
        chosen, values = spec["end_to_end"], e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
