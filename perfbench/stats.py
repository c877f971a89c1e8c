"""Summary statistics and the two-commit comparison rules.

Percentiles use the nearest-rank definition: the p-th percentile of n
sorted samples is the sample at rank ceil(p * n / 100), so exactly
n - rank samples lie beyond it.
"""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)
MIN_BEYOND = 10


def rank(n: int, pct: float) -> int:
    return max(1, math.ceil(pct * n / 100 - 1e-9))


def percentile(sorted_values, pct: float) -> float:
    return sorted_values[rank(len(sorted_values), pct) - 1]


def beyond(n: int, pct: float) -> int:
    """How many of n samples lie above the pct-th percentile's rank."""
    return n - rank(n, pct)


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least MIN_BEYOND samples
    beyond it, or None when n is too small for any."""
    fitting = [p for p in TAIL_LADDER if beyond(n, p) >= MIN_BEYOND]
    return fitting[-1] if fitting else None


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else math.inf


def compare(parent, change, better: str, bound: float) -> dict:
    """Judge one workload x metric from runs of two commits.

    parent and change are equally long lists of values, paired by index
    (pair i ran one after the other).  The verdict follows the
    choosing-metrics rules: 'better' needs the change to win at least nine
    tenths of the pairs (ties count for neither) and the medians to differ
    by more than the parent's inter-quartile distance; otherwise
    'unresolved' when the parent's own spread exceeds the bound, unless
    every change run beats every parent run; 'worse' when the change's median is worse than
    the parent's by more than the bound; otherwise 'same'.
    """
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    pairs = min(len(parent), len(change))
    improved = sign * (cm - pm) > 0
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if improved and wins >= 0.9 * pairs and abs(cm - pm) > p3 - p1:
        verdict = "better"
    elif spread(parent) > bound and not all_better:
        verdict = "unresolved"
    elif -sign * (cm - pm) > bound * abs(pm):
        verdict = "worse"
    else:
        verdict = "same"
    return {
        "parent": {"q1": p1, "median": pm, "q3": p3},
        "change": {"q1": c1, "median": cm, "q3": c3},
        "won_share": wins / pairs if pairs else 0.0,
        "verdict": verdict,
    }
