"""Self-tests of the benchmark's own arithmetic.

    PYTHONPATH=src:perfbench python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
from pathlib import Path

import pytest

import layertrace
import stats
import worker
import yardstick
from roundreach import cli, numerics, polar_decider, rotation_lab, rounding
from roundreach.numerics import CycloNum


# -- tail percentile: the highest ladder rung with >= 10 samples beyond it --

@pytest.mark.parametrize("n, expected", [
    (9, None), (10, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (2000, 99.5),
    (10_000, 99.9), (10**6, 99.99),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert stats.beyond(n, expected) >= stats.MIN_BEYOND
        higher = [p for p in stats.TAIL_LADDER if p > expected]
        assert all(stats.beyond(n, p) < stats.MIN_BEYOND for p in higher)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 99.5) == 100
    assert stats.beyond(100, 90) == 10


# -- yardstick scaling: each op by the two units that bracket it --

def test_summarize_scales_each_op_by_its_bracketing_units():
    ref = yardstick.REFERENCE_MS / 1000
    # Ops 0-1 ran between units at reference speed, op 2 between units
    # twice as slow: every scaled latency comes out at 10 ms.
    latencies = [0.010, 0.010, 0.020]
    units, windows = [ref, ref, 2 * ref, 2 * ref], [0, 0, 2]
    result = worker.summarize(latencies, [], units, windows, 75.0)
    assert result["op_p50_ms"] == pytest.approx(10.0)
    assert result["op_tail_ms"] == pytest.approx(10.0)
    assert result["ops_per_s"] == pytest.approx(100.0)
    assert result["raw"]["op_tail_ms"] == pytest.approx(20.0)
    assert result["raw"]["ops_per_s"] == pytest.approx(3 / 0.040)
    assert yardstick.scale(ref, 3 * ref) == pytest.approx(0.5)


# -- self time on a synthetic span tree, driven by a fake clock --

def test_self_time_subtracts_wrapped_children():
    now = [0.0]
    tracer = layertrace.Tracer(clock=lambda: now[0])

    def work(seconds):
        now[0] += seconds

    leaf_a = tracer.wrap("leaf.a", lambda: work(2))
    leaf_b = tracer.wrap("leaf.b", lambda: work(4))

    def inner_body():
        work(3)
        leaf_b()

    inner = tracer.wrap("inner", inner_body, span=True)

    def outer_body():
        work(1)
        leaf_a()
        inner()
        leaf_a()
        work(5)

    tracer.op_id = 7
    tracer.call("op", True, None, outer_body, (), {})

    totals = tracer.totals()
    # op: 1 + 2 + (3 + 4) + 2 + 5 = 17, children 2 + 7 + 2
    assert totals["op"] == [1, 17.0, 6.0]
    assert totals["leaf.a"] == [2, 4.0, 4.0]
    assert totals["inner"] == [1, 7.0, 3.0]
    assert totals["leaf.b"] == [1, 4.0, 4.0]
    # spans only for op and inner; inner's parent is the op span
    names = [s[0] for s in tracer.spans]
    assert names == ["op", "inner"]
    op_span, inner_span = tracer.spans
    assert op_span[1:] == [0.0, 17.0, None, 7, 6.0]
    assert inner_span[1:] == [3.0, 10.0, 0, 7, 3.0]
    assert set(op for op, _m in tracer.aggregates) == {7}


def test_disabled_tracer_passes_calls_through():
    tracer = layertrace.Tracer()
    tracer.enabled = False
    assert tracer.wrap("f", lambda x: x + 1)(1) == 2
    assert tracer.totals() == {}


# -- wrapping reaches every binding and is undone --

def test_install_wraps_every_binding_and_uninstall_restores():
    before = (numerics.certified_floor, rounding.certified_floor, cli.decide_polar,
              polar_decider.decide_polar, CycloNum.__mul__, CycloNum.__rmul__)
    tracer = layertrace.Tracer()
    layertrace.install(tracer)
    try:
        assert rounding.certified_floor is numerics.certified_floor
        assert rounding.certified_floor is not before[0]
        assert cli.decide_polar is polar_decider.decide_polar is not before[3]
        assert CycloNum.__rmul__ is CycloNum.__mul__ is not before[4]
        # rotation_lab's binding counts exact fallbacks, then calls the layer
        assert rotation_lab.certified_floor is not numerics.certified_floor
        z = CycloNum.from_rational(4, 3) * 2
        assert rotation_lab.certified_floor(z) == 6
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert totals["numerics.cyclo_mul"][0] == 1
    assert totals["numerics.certified_floor"][0] == 1
    assert tracer.counts["exact_fallbacks"] == 1
    after = (numerics.certified_floor, rounding.certified_floor, cli.decide_polar,
             polar_decider.decide_polar, CycloNum.__mul__, CycloNum.__rmul__)
    assert after == before


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == layertrace.metric_names()
    assert "setup_s" in [m["name"] for m in spec["end_to_end"]]


# -- the two-commit verdicts --

def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    faster = [v * 0.8 for v in parent]
    assert stats.compare(parent, faster, "lower", 0.1)["verdict"] == "better"
    assert stats.compare(parent, faster, "higher", 0.1)["verdict"] == "worse"
    assert stats.compare(parent, list(parent), "lower", 0.1)["verdict"] == "same"
    noisy = [50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 80.0, 120.0, 100.0]
    assert stats.compare(noisy, [v * 1.05 for v in noisy], "lower", 0.1)["verdict"] == "unresolved"
    assert stats.compare(noisy, [40.0] * 10, "lower", 0.1)["won_share"] == 1.0
