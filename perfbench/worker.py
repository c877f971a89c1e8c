"""One benchmark process: set up, signal ready, then time or trace ops.

Started by run.py with src/ on the import path:

    python3 perfbench/worker.py --workload W --seed N --mode setup|run|trace [--seconds S]

It prints "ready" once `roundreach` is imported and the first inputs are
built, and in the run and trace modes one JSON line with the result last.
Load is closed-loop with one client: the next op starts when the previous
one and its (untimed) check have returned.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import stats
import yardstick
from workloads import WORKLOADS, CheckFailed

RESULTS = Path(__file__).resolve().parent / "results"
WARMUP_S = 0.5


def run_one(workload, check, item, failures):
    """Time one op, then check it; returns its latency in seconds.  A failed
    op keeps its latency and appends its reason to `failures`."""
    start = time.perf_counter()
    try:
        out = workload.op(item)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        failures.append(f"{type(exc).__name__}: {exc}")
        return time.perf_counter() - start
    latency = time.perf_counter() - start
    try:
        check(item, out)
    except CheckFailed as exc:
        failures.append(str(exc))
    return latency


def timed_run(workload, check, inputs, seconds):
    """Ops until `seconds` have passed, with a yardstick unit before the
    first op, after the last, and between two ops whenever SAMPLE_EVERY_S
    of op time has gone by.  Returns the latencies, the failures, the unit
    times and, per op, the index of the unit just before it."""
    latencies, failures, units, windows = [], [], [yardstick.unit()], []
    deadline = time.perf_counter() + seconds
    since_unit = 0.0
    for item in inputs:
        latency = run_one(workload, check, item, failures)
        latencies.append(latency)
        windows.append(len(units) - 1)
        since_unit += latency
        if since_unit >= yardstick.SAMPLE_EVERY_S:
            units.append(yardstick.unit())
            since_unit = 0.0
        if time.perf_counter() >= deadline:
            break
    units.append(yardstick.unit())
    return latencies, failures, units, windows


def time_metrics(latencies, tail_pct):
    ordered = sorted(latencies)
    return {
        "ops_per_s": len(ordered) / sum(ordered),
        "op_p50_ms": 1000 * stats.percentile(ordered, 50),
        "op_tail_ms": 1000 * stats.percentile(ordered, tail_pct),
    }


def summarize(latencies, failures, units, windows, tail_pct):
    """Time metrics at the yardstick's reference speed: each op's latency
    is scaled by the units on either side of it (yardstick.scale).  The
    unscaled figures are kept under "raw"."""
    scaled = [latency * yardstick.scale(units[k], units[k + 1])
              for latency, k in zip(latencies, windows)]
    n = len(latencies)
    return {
        "attempted": n,
        "failed": len(failures),
        "failures": failures[:5],
        **time_metrics(scaled, tail_pct),
        "raw": time_metrics(latencies, tail_pct),
        "unit_ms": 1000 * statistics.median(units),
        "units": len(units),
        "tail_pct": tail_pct,
        "tail_beyond": stats.beyond(n, tail_pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(workload, check, prefix, seed):
    import layertrace

    def one_pass(tracer=None):
        failures, wall = [], 0.0
        for op_id, item in enumerate(prefix):
            start = time.perf_counter()
            try:
                if tracer is None:
                    out = workload.op(item)
                else:
                    tracer.op_id = op_id
                    out = tracer.call("op", True, None, workload.op, (item,), {})
            except Exception as exc:
                failures.append(f"{type(exc).__name__}: {exc}")
                continue
            finally:
                wall += time.perf_counter() - start
            if tracer is not None:
                tracer.enabled = False
            try:
                check(item, out)
            except CheckFailed as exc:
                failures.append(str(exc))
            if tracer is not None:
                tracer.enabled = True
        return wall, failures

    one_pass()  # per-input caches fill before either timed pass
    untraced, _ = one_pass()
    tracer = layertrace.Tracer()
    layertrace.install(tracer)
    try:
        traced, failures = one_pass(tracer)
    finally:
        tracer.uninstall()
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"trace-{workload.name}-seed{seed}.json"
    path.write_text(json.dumps({
        "spans": tracer.spans,
        "aggregates": [[op, metric, *rec] for (op, metric), rec in tracer.aggregates.items()],
        "counts": tracer.counts,
    }))
    return {
        "attempted": len(prefix),
        "failed": len(failures),
        "failures": failures[:5],
        "untraced_s": untraced,
        "traced_s": traced,
        "trace_file": str(path.relative_to(RESULTS.parent.parent)),
        "layers": layertrace.layer_metrics(tracer, traced / untraced),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    prefix = list(itertools.islice(inputs, workload.trace_ops))
    check = workload.checker(args.seed)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    # Warm-up: lazy imports, per-order tables and caches fill before timing.
    stream = itertools.chain(prefix, inputs)
    warm_until = time.perf_counter() + WARMUP_S
    for item in stream:
        run_one(workload, check, item, [])
        if time.perf_counter() >= warm_until:
            break
    # The heap set-up built (sympy, mpmath, the inputs) is frozen, so
    # the collector's full passes during ops scan only what ops allocate.
    gc.collect()
    gc.freeze()
    if args.mode == "trace":
        result = traced_run(workload, check, prefix, args.seed)
    else:
        timed = timed_run(workload, check, stream, args.seconds)
        result = summarize(*timed, workload.tail_pct)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
