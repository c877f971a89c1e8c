"""Benchmark entry point; run from the root of a checkout.

    python3 perfbench/run.py --workload decide-mix --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py --all [--seeds 0 1 2] [--seconds S] [--out results.jsonl]

A single run starts fresh interpreters for set-up (a warm-up one, then
SETUP_PROBES timed ones) and one worker process for the ops, and prints an
environment line, a human-readable summary and, last, one JSON object:
with --trace 0 the end-to-end metrics of BENCHMARK.json, with --trace 1
its per-layer metrics from a traced pass over a fixed prefix of inputs.
--all runs every workload for each seed, then the README smoke check, and
prints one table with every end-to-end metric; --out appends one JSON
record per run for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("decide-mix", "orbit-oracle", "qbf-hardness", "rotation-disk")
SETUP_PROBES = 3
SETUP_UNITS = 4  # yardstick units before each set-up probe and the worker
RUN_TIMEOUT_S = 170


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(workload: str, seed: int, mode: str, seconds: float):
    """Start a worker; returns (process, seconds until it printed 'ready')."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(),
                            cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{workload} worker failed during set-up")
    return proc, ready


def finish(proc, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "not installed"

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "sympy": version("sympy"),
        "mpmath": version("mpmath"),
        "nproc": os.cpu_count(),
        "loadavg_start": loadavg(),
        "yardstick_unit_ms_start": unit_ms(),
    }


def unit_ms() -> float:
    """Median of five yardstick units: the machine's speed at this moment."""
    return round(1000 * statistics.median(yardstick.unit() for _ in range(5)), 3)


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set-up probes, then the worker; returns the worker's result plus setup_s."""
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    proc, _ = start_worker(workload, seed, "setup", 0)  # fills bytecode and file caches
    finish(proc, 60)
    setups, units = [], []
    for _ in range(SETUP_PROBES):
        units.extend(yardstick.unit() for _ in range(SETUP_UNITS))
        proc, ready = start_worker(workload, seed, "setup", 0)
        finish(proc, 60)
        setups.append(ready)
    units.extend(yardstick.unit() for _ in range(SETUP_UNITS))
    proc, ready = start_worker(workload, seed, "trace" if trace else "run", seconds)
    setups.append(ready)
    result = json.loads(finish(proc, deadline - time.perf_counter()).splitlines()[-1])
    setup_unit_ms = 1000 * statistics.median(units)
    result["setup_s"] = statistics.median(setups) * yardstick.REFERENCE_MS / setup_unit_ms
    result["setup_samples"] = setups
    result["setup_unit_ms"] = setup_unit_ms
    return result


def contract_metrics(result: dict, trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if trace:
        return {m["name"]: {"value": result["layers"][m["name"]], "unit": m["unit"]}
                for m in spec["per_layer"]}
    return {m["name"]: {"value": result[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def describe(workload: str, result: dict, trace: bool) -> str:
    if trace:
        return (f"{workload}: traced {result['attempted']} ops, "
                f"{result['untraced_s']:.3f} s untraced, {result['traced_s']:.3f} s traced, "
                f"spans in {result['trace_file']}")
    return (f"{workload}: {result['attempted']} ops, failed {result['failed']}, "
            f"ops_per_s {result['ops_per_s']:.3f} op/s, op_p50_ms {result['op_p50_ms']:.3f} ms, "
            f"op_tail_ms {result['op_tail_ms']:.3f} ms (p{result['tail_pct']:g}, "
            f"{result['tail_beyond']} ops beyond), "
            f"failed_share {result['failed'] / result['attempted']:.4f} fraction, "
            f"peak_rss_mb {result['peak_rss_mb']:.1f} MiB, setup_s {result['setup_s']:.4f} s; "
            f"yardstick unit {result['unit_ms']:.3f} ms over {result['units']} samples "
            f"({result['setup_unit_ms']:.3f} ms during set-up), reference "
            f"{yardstick.REFERENCE_MS} ms; unscaled ops_per_s {result['raw']['ops_per_s']:.3f}, "
            f"op_p50_ms {result['raw']['op_p50_ms']:.3f}, op_tail_ms {result['raw']['op_tail_ms']:.3f}, "
            f"setup_s {statistics.median(result['setup_samples']):.4f}")


def single(args) -> int:
    env = environment()
    result = run_once(args.workload, args.seed, args.seconds, args.trace == 1)
    env["loadavg_end"] = loadavg()
    env["yardstick_unit_ms_end"] = unit_ms()
    print("environment " + json.dumps(env))
    print(describe(args.workload, result, args.trace == 1))
    for failure in result["failures"]:
        print(f"failure: {failure}")
    if args.out:
        record(args.out, env, args.workload, args.seed, result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": contract_metrics(result, args.trace == 1),
    }))
    return 0


def record(path: str, env: dict, workload: str, seed: int, result: dict) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"environment": env, "workload": workload, "seed": seed,
                             "result": result}) + "\n")


def run_all(args) -> int:
    import smoke

    env = environment()
    print("environment " + json.dumps(env))
    all_ok = True
    for seed in args.seeds:
        for workload in WORKLOADS:
            result = run_once(workload, seed, args.seconds, False)
            print(describe(workload, result, False), flush=True)
            all_ok = all_ok and result["failed"] == 0
            if args.out:
                record(args.out, env, workload, seed, result)
    smoke.main([])
    print("environment_end " + json.dumps({"loadavg_end": loadavg(),
                                           "yardstick_unit_ms_end": unit_ms()}))
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if not (SRC / "roundreach" / "__init__.py").is_file():
        print(f"no roundreach sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
