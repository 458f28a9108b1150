"""One benchmark pass: a fresh process that runs one workload's request list.

The pass times ``import centrocirc, centrocirc.cli`` first, before anything
else imports numpy, then sends the requests as a closed loop with one
client: each request starts only after the previous one returned.  Every
output is checked by ``oracles`` right after its timed interval.  The pass
prints one JSON line with its timings, failures and, with ``--trace``, the
per-function counts and self times.

Run through ``run.py``; by hand::

    PYTHONPATH=src python3 bench/worker.py --workload verify_sweep --seed 1
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time


def call(request, args):
    """Send one request; a CLI request returns (exit code, stdout text)."""
    if request.argv is not None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sys.modules["centrocirc.cli"].main(list(request.argv))
        return code, out.getvalue()
    module, name = request.func.split(".")
    return getattr(sys.modules[f"centrocirc.{module}"], name)(*args)


def run_requests(requests, tracer=None) -> dict:
    """Time and check every request in order; the tracer, if any, is active
    only inside the timed intervals."""
    latencies, cpu, failures = [], [], []
    stdout_bytes = 0
    for index, request in enumerate(requests):
        args = request.inputs() if request.inputs is not None else None
        if tracer is not None:
            tracer.request, tracer.active = index, True
        cpu_start, start = time.process_time(), time.perf_counter()
        try:
            result, problem = call(request, args), None
        except Exception as exc:
            result, problem = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        cpu.append((time.process_time() - cpu_start) * 1e3)
        if tracer is not None:
            tracer.active = False
        latencies.append(elapsed * 1e3)
        if problem is None:
            if request.argv is not None:
                stdout_bytes += len(result[1].encode())
            try:
                problem = request.check(args, result)
            except Exception as exc:
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
        if problem is not None:
            failures.append(f"{request.signature()[:160]}: {problem}")
    return {"wall_s": sum(latencies) / 1e3, "latencies_ms": latencies, "cpu_ms": cpu,
            "attempted": len(requests), "failed": len(failures),
            "failures": failures[:10], "stdout_bytes": stdout_bytes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the pass's spans to this CSV file")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import centrocirc
    import centrocirc.cli  # noqa: F401
    setup_s = time.perf_counter() - start

    import numpy
    import scipy

    import tracer as tracing
    import workloads

    requests = workloads.build(args.workload, args.seed)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    origin = time.perf_counter()
    result = run_requests(requests, tracer)
    result.update(
        setup_s=setup_s,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        repeat_share=workloads.repeat_share(requests),
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "centrocirc": centrocirc.__version__},
        traced=tracer is not None,
    )
    if tracer is not None:
        tracer.uninstall()
        result["functions"] = tracer.summary()
        if args.spans:
            tracer.write_spans(args.spans, origin)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
