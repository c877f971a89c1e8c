"""Compare result sets of two commits, one row per workload x end-to-end metric.

    python3 perfbench/run.py --all --seeds 1 2 3 ... --out parent.jsonl   # on the parent
    python3 perfbench/run.py --all --seeds 1 2 3 ... --out change.jsonl   # on the change
    python3 perfbench/compare.py parent.jsonl change.jsonl

Runs pair up by workload and seed.  Each row gives both sides' median and
quartiles, the share of pairs the change won, and the verdict of
stats.compare under the metric's bound from BENCHMARK.json.  Alternate which
commit runs first from pair to pair; this script does not check that.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """(workload, seed) -> result of the last record for it."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            runs[(rec["workload"], rec["seed"])] = rec["result"]
    return runs


def rows(parent: dict, change: dict, metrics: list[dict]) -> list[dict]:
    by_workload = defaultdict(list)
    for key in sorted(parent.keys() & change.keys()):
        by_workload[key[0]].append(key)
    out = []
    for workload, keys in sorted(by_workload.items()):
        failed = (sum(parent[k]["failed"] for k in keys), sum(change[k]["failed"] for k in keys))
        for m in metrics:
            verdict = stats.compare([parent[k][m["name"]] for k in keys],
                                    [change[k][m["name"]] for k in keys],
                                    m["better"], m["bound"])
            if failed[1] > failed[0]:
                verdict["verdict"] = "worse (more failed ops)"
            out.append({"workload": workload, "metric": m["name"], "unit": m["unit"],
                        "pairs": len(keys), **verdict})
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    table = rows(load(argv[0]), load(argv[1]), metrics)
    print(f"{'workload':14} {'metric':12} {'unit':5} {'pairs':>5} "
          f"{'parent q1/med/q3':>30} {'change q1/med/q3':>30} {'won':>5}  verdict")
    for r in table:
        p, c = r["parent"], r["change"]
        print(f"{r['workload']:14} {r['metric']:12} {r['unit']:5} {r['pairs']:5} "
              f"{p['q1']:10.4g}{p['median']:10.4g}{p['q3']:10.4g} "
              f"{c['q1']:10.4g}{c['median']:10.4g}{c['q3']:10.4g} "
              f"{r['won_share']:5.2f}  {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
