"""Regenerate the reference files under perfbench/refs/.

    PYTHONPATH=src:perfbench python3 perfbench/make_refs.py [decide-mix] [disks]

decide_mix_seed0.json holds the outcome of the first DECIDE_MIX_REFS
decide-mix instances at seed 0, found by brute_force_decide alone, with the
bounds the acceptance tests use (criterion 4: the largest escape radius as
ball, 10^6 steps; criterion 6: polar_step_cap; criterion 7: 2000 steps, ball
1000 under expansion).  Rational-matrix instances have no test oracle; they
get a ball of 10^6 and 10^5 steps, far past the escape radii of the
generated matrices.  Takes a few minutes, most of it on criterion-6 orbits
that run to their cap.

disk_digests.json holds the SHA-256 of grid_csv(run_disk(r, theta)) for
every disk in workloads.DISKS.
"""

from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction

from roundreach import cli
from roundreach.hyperbolic import block_tables
from roundreach.rotation_lab import grid_csv, run_disk
from roundreach.system import RationalSystem, Reached, brute_force_decide

import workloads

DECIDE_MIX_REFS = 200


def oracle(system):
    if isinstance(system, RationalSystem):
        return brute_force_decide(system, ball_bound=Fraction(10**6), step_bound=100_000)
    if all(b.eigen_modulus != 1 for b in system.blocks):
        ball = max(r for t in block_tables(system) for r in t.radii)
        return brute_force_decide(system, ball_bound=ball, step_bound=1_000_000)
    step_bound, ball = workloads.oracle_bound(system)
    return brute_force_decide(system, ball_bound=ball, step_bound=step_bound)


def decide_mix_refs() -> list[dict]:
    out = []
    for index, text in itertools.islice(workloads.decide_mix_inputs(0), DECIDE_MIX_REFS):
        verdict = oracle(cli.parse_instance(text))
        if isinstance(verdict, Reached):
            out.append({"outcome": "reached", "step": verdict.step})
        else:
            out.append({"outcome": "not-reached"})
        print(index, out[-1], file=sys.stderr, flush=True)
    return out


def disk_digests() -> dict[str, str]:
    return {f"{r} {theta}": workloads.csv_digest(grid_csv(run_disk(r, theta)))
            for r, theta in workloads.DISKS}


def main(argv) -> int:
    which = argv or ["decide-mix", "disks"]
    workloads.REFS.mkdir(exist_ok=True)
    if "disks" in which:
        (workloads.REFS / "disk_digests.json").write_text(
            json.dumps(disk_digests(), indent=1) + "\n")
    if "decide-mix" in which:
        (workloads.REFS / "decide_mix_seed0.json").write_text(
            json.dumps(decide_mix_refs(), indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
