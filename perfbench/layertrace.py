"""Per-layer tracing from outside the program.

`install(tracer)` replaces each public layer function at every binding it is
reached through (the defining module, every `roundreach` module that
imported it by name, and the benchmark's workloads module; class attributes
for methods, aliases included) with a wrapper that charges the call to one layer metric.  Nothing under src/
changes.

Self time is a call's duration minus the time of the wrapped calls nested
inside it.  Ops and decider/driver calls also get a span (name, start, end,
parent span, op id); the hot numeric and rounding leaves, which run millions
of times per orbit-oracle run, keep only count, total and self time per
(op, metric), so memory stays bounded.  The program is single-threaded with
no queue, so no layer has waiting time to report.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

from roundreach import (argand_decider, cli, hyperbolic, numerics, polar_decider,
                        qbf_compiler, rotation_lab, rounding, system)
from roundreach.system import CycleDetected, NotReached

# (owner, attribute names, metric, gets a span)
TARGETS = (
    (numerics.CycloNum, ("__mul__",), "numerics.cyclo_mul", False),
    (numerics.CycloNum, ("conjugate",), "numerics.cyclo_conjugate", False),
    (numerics.CycloNum, ("__add__", "__sub__", "__rsub__", "__neg__", "__truediv__"),
     "numerics.cyclo_linear", False),
    (numerics, ("nearest_angle_index",), "numerics.nearest_angle_index", False),
    (numerics, ("floor_sqrt", "ceil_sqrt", "half_up_sqrt"), "numerics.sqrt_round", False),
    (numerics, ("embed_polar",), "numerics.embed_polar", False),
    (numerics, ("certified_floor",), "numerics.certified_floor", False),
    (numerics, ("sign_of_real",), "numerics.sign_of_real", False),
    (rounding, ("round_value",), "rounding.round_value", False),
    (rounding, ("point_value",), "rounding.point_value", False),
    (rounding, ("round_real",), "rounding.round_real", False),
    (system, ("step_with_intermediates",), "system.step_with_intermediates", False),
    (system, ("brute_force_decide",), "system.brute_force_decide", True),
    (system, ("run_lock_step",), "system.run_lock_step", True),
    (hyperbolic.HyperbolicBlockAnalyzer, ("observe",), "hyperbolic.analyzer_observe", False),
    (hyperbolic, ("radii",), "hyperbolic.radii", False),
    (hyperbolic, ("jnf_rational",), "hyperbolic.jnf_rational", True),
    (hyperbolic, ("decide_hyperbolic_general",), "hyperbolic.decide_hyperbolic_general", True),
    (hyperbolic, ("decide_hyperbolic_jnf",), "hyperbolic.decide_hyperbolic_jnf", True),
    (polar_decider.PolarBlockAnalyzer, ("observe",), "polar_decider.analyzer_observe", False),
    (polar_decider, ("polar_step_cap",), "polar_decider.polar_step_cap", False),
    (polar_decider, ("decide_polar",), "polar_decider.decide_polar", True),
    (argand_decider.TruncationBlockAnalyzer, ("observe",), "argand_decider.analyzer_observe",
     False),
    (argand_decider.ExpansionBlockAnalyzer, ("observe",), "argand_decider.analyzer_observe",
     False),
    (argand_decider, ("argand_step_cap",), "argand_decider.argand_step_cap", False),
    (argand_decider, ("decide_truncation",), "argand_decider.decide_truncation", True),
    (argand_decider, ("decide_expansion",), "argand_decider.decide_expansion", True),
    (qbf_compiler, ("hardness_step",), "qbf_compiler.hardness_step", False),
    (qbf_compiler, ("compile_qbf",), "qbf_compiler.compile_qbf", True),
    (qbf_compiler, ("perturb",), "qbf_compiler.perturb", True),
    (qbf_compiler, ("decide_hardness",), "qbf_compiler.decide_hardness", True),
    (rotation_lab, ("run_disk",), "rotation_lab.run_disk", True),
    (cli, ("parse_instance",), "cli.parse_instance", False),
    (cli, ("dispatch",), "cli.dispatch", True),
    (cli, ("verdict_json",), "cli.verdict_json", False),
)

LAYER_FUNCTIONS = tuple(dict.fromkeys(metric for _o, _a, metric, _s in TARGETS))

# name -> (unit, better, how it is derived); the per-layer metrics besides
# <function>.calls and <function>.self_s (both better lower: for fixed
# inputs, fewer calls is less work).
DERIVED = {
    "system.oracle_capped_share": (
        "fraction", "lower", "oracle calls that ended at their step bound / oracle calls"),
    "qbf_compiler.rows_evaluated": ("count", "lower", "rows rounded by hardness_step"),
    "qbf_compiler.active_row_share": (
        "fraction", "higher", "rows reading a nonzero input / rows evaluated"),
    "rotation_lab.rotator_steps": (
        "count", "lower", "sum over orbits of transient + period; fixed by the inputs"),
    "rotation_lab.exact_fallbacks": (
        "count", "lower", "calls through rotation_lab.certified_floor"),
    "rotation_lab.exact_fallback_share": (
        "fraction", "lower", "exact fallbacks / rotator steps"),
    "rotation_lab.interval_refinements": (
        "count", "lower", "IrrationalTheta.interval calls beyond the one per disk"),
    "trace.overhead": (
        "ratio", "lower", "traced wall time / untraced wall time of the same ops"),
}


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric, in report order: (name, unit, better)."""
    out = []
    for fn in LAYER_FUNCTIONS:
        out.append((f"{fn}.calls", "count", "lower"))
        out.append((f"{fn}.self_s", "s", "lower"))
    out.extend((name, unit, better) for name, (unit, better, _how) in DERIVED.items())
    return out


class Tracer:
    """Call accounting for wrapped functions; `clock` is injectable for tests."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.enabled = True
        self.op_id = None
        self.frames: list[list] = []  # [child time, span index or None]
        self.spans: list[list] = []   # [name, start, end, parent, op id, self]
        self.aggregates = defaultdict(lambda: [0, 0.0, 0.0])  # (op, metric) -> calls, total, self
        self.counts = Counter()
        self._installed: list[tuple[object, str, object]] = []

    def call(self, metric, span, post, fn, args, kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        frames = self.frames
        parent = frames[-1] if frames else None
        index = None
        if span:
            index = len(self.spans)
            parent_span = next((f[1] for f in reversed(frames) if f[1] is not None), None)
            self.spans.append([metric, None, None, parent_span, self.op_id, None])
        frame = [0.0, index]
        frames.append(frame)
        start = self.clock()
        try:
            return_value = fn(*args, **kwargs)
        finally:
            end = self.clock()
            frames.pop()
            duration = end - start
            own = duration - frame[0]
            record = self.aggregates[(self.op_id, metric)]
            record[0] += 1
            record[1] += duration
            record[2] += own
            if span:
                self.spans[index][1:3] = (start, end)
                self.spans[index][5] = own
        if post is not None:
            post(self, args, kwargs, return_value)
        if parent is not None:
            # bookkeeping in `post` is charged to no layer
            parent[0] += self.clock() - start
        return return_value

    def wrap(self, metric, fn, span=False, post=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(metric, span, post, fn, args, kwargs)
        return wrapper

    def replace(self, owner, attr, new) -> None:
        self._installed.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._installed):
            setattr(owner, attr, old)
        self._installed.clear()

    def totals(self) -> dict[str, list]:
        """metric -> [calls, total, self], summed over ops."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (_op, metric), (calls, total, own) in self.aggregates.items():
            rec = out[metric]
            rec[0] += calls
            rec[1] += total
            rec[2] += own
        return out


# ---------------------------------------------------------------------------
# Derived counters, computed after the wrapped call returns


def _after_oracle(tracer, args, kwargs, verdict):
    bound = kwargs.get("step_bound", args[2] if len(args) > 2 else 1_000_000)
    if verdict == NotReached(CycleDetected(bound)):
        tracer.counts["oracle_capped"] += 1


def _after_hardness_step(tracer, args, kwargs, _result):
    instance, state = args
    tracer.counts["rows_evaluated"] += len(instance.rows)
    tracer.counts["active_rows"] += sum(
        1 for row in instance.rows if any(state[col] for col, _c in row))


def _after_disk(tracer, args, kwargs, report):
    tracer.counts["rotator_steps"] += sum(o.transient + (o.period or 0)
                                          for o in report.orbits)
    intervals = tracer.counts["interval_calls"] - tracer.counts["interval_seen"]
    tracer.counts["interval_seen"] = tracer.counts["interval_calls"]
    tracer.counts["interval_refinements"] += max(intervals - 1, 0)


POST = {
    "system.brute_force_decide": _after_oracle,
    "qbf_compiler.hardness_step": _after_hardness_step,
    "rotation_lab.run_disk": _after_disk,
}


def _counting(tracer, key, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.enabled:
            tracer.counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def _calling_modules():
    """The package's modules and the benchmark's own workload module."""
    return [m for name, m in sorted(sys.modules.items()) if m is not None and (
        name in ("roundreach", "workloads") or name.startswith("roundreach."))]


def install(tracer: Tracer) -> None:
    """Wrap every target at every binding it is reachable through."""
    modules = _calling_modules()
    for owner, attrs, metric, span in TARGETS:
        for attr in attrs:
            original = vars(owner)[attr]
            wrapper = tracer.wrap(metric, original, span, POST.get(metric))
            if isinstance(owner, type):
                bindings = [(owner, a) for a, v in vars(owner).items() if v is original]
            else:
                bindings = [(m, a) for m in modules for a, v in vars(m).items()
                            if v is original]
            for where, name in bindings:
                tracer.replace(where, name, wrapper)
    # Binding-specific counters: the rotator's exact fallback reaches
    # certified_floor through rotation_lab's own import of it.
    tracer.replace(rotation_lab, "certified_floor",
                   _counting(tracer, "exact_fallbacks", rotation_lab.certified_floor))
    theta = rotation_lab.IrrationalTheta
    tracer.replace(theta, "interval", _counting(tracer, "interval_calls", theta.interval))


def layer_metrics(tracer: Tracer, overhead: float) -> dict[str, float]:
    totals = tracer.totals()
    out: dict[str, float] = {}
    for fn in LAYER_FUNCTIONS:
        calls, _total, own = totals.get(fn, (0, 0.0, 0.0))
        out[f"{fn}.calls"] = calls
        out[f"{fn}.self_s"] = own
    c = tracer.counts
    oracle_calls = totals.get("system.brute_force_decide", (0,))[0]
    out["system.oracle_capped_share"] = _share(c["oracle_capped"], oracle_calls)
    out["qbf_compiler.rows_evaluated"] = c["rows_evaluated"]
    out["qbf_compiler.active_row_share"] = _share(c["active_rows"], c["rows_evaluated"])
    out["rotation_lab.rotator_steps"] = c["rotator_steps"]
    out["rotation_lab.exact_fallbacks"] = c["exact_fallbacks"]
    out["rotation_lab.exact_fallback_share"] = _share(c["exact_fallbacks"], c["rotator_steps"])
    out["rotation_lab.interval_refinements"] = c["interval_refinements"]
    out["trace.overhead"] = overhead
    return out


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0

