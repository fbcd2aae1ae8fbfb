"""Sanity checks on the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The traced run must count what the untraced run measured exactly, the
self-time arithmetic must hold on a hand-built span tree, and every
workload's traced report must carry ``untraced_ms``.  The traced
iterations take about half a minute in all.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run  # noqa: E402
from perfbench.layers import METRICS  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    Tracer,
    covered_ns,
    percentile,
    self_times,
    top_level_ns,
)
from perfbench.workloads import WORKLOADS, Rep  # noqa: E402


# -- span arithmetic ---------------------------------------------------------

def test_self_time_on_a_synthetic_tree():
    # root 0..100 holds a 10..40 child (which holds 15..25) and a 50..60
    # child; a second root spans 120..130
    spans = [
        ["root", 0, 100, -1],
        ["child", 10, 40, 0],
        ["leaf", 15, 25, 1],
        ["child", 50, 60, 0],
        ["root", 120, 130, -1],
    ]
    assert self_times(spans) == {"root": 60 + 10, "child": 20 + 10,
                                 "leaf": 10}
    assert top_level_ns(spans) == 110
    # self times partition the covered wall time
    assert sum(self_times(spans).values()) == top_level_ns(spans)


def test_overlapping_children_are_not_double_counted():
    spans = [["root", 0, 100, -1], ["a", 10, 50, 0], ["b", 30, 70, 0]]
    assert covered_ns([(10, 50), (30, 70)]) == 60
    assert self_times(spans)["root"] == 40


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.99) == 99
    assert percentile([], 0.5) == 0.0


def test_tracer_records_nesting_and_restores_originals():
    ticks = iter(range(0, 1000, 10))
    tracer = Tracer(clock=lambda: next(ticks))

    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original_outer, original_inner = Box.outer, Box.inner
    with tracer:
        tracer.wrap_method(Box, "outer", "outer")
        tracer.wrap_method(Box, "inner", "inner", count_only=True)
        assert Box().outer() == 2
    assert Box.__dict__["outer"] is original_outer
    assert Box.__dict__["inner"] is original_inner
    assert tracer.spans == [["outer", 0, 10, -1]]
    assert tracer.calls() == {"outer": 1, "inner": 1}


def test_wrap_function_patches_every_binding(monkeypatch):
    def target():
        return "value"

    defining = types.ModuleType("repro._bench_probe_a")
    importer = types.ModuleType("perfbench._bench_probe_b")
    defining.target = importer.alias = target
    monkeypatch.setitem(sys.modules, defining.__name__, defining)
    monkeypatch.setitem(sys.modules, importer.__name__, importer)
    tracer = Tracer()
    with tracer:
        tracer.wrap_function(target, "probe")
        assert defining.target() == importer.alias() == "value"
    assert defining.target is target and importer.alias is target
    assert tracer.calls()["probe"] == 2


def test_end_to_end_times_are_scaled_by_the_yardstick():
    workload = types.SimpleNamespace(elasticity=0.5)
    measurement = run.Measurement(workload=workload, reference=None)
    measurement.setups = [1.0, 2.0, 9.0]
    measurement.reps = [Rep(ops=1, phases={"a": a, "b": b},
                            exact={"area_clbs": 7})
                        for a, b in ((1.0, 4.0), (3.0, 1.0), (5.0, 2.0))]
    # the yardstick ran four times as slow as on the reference host, so
    # the times are halved at an elasticity of 0.5
    reference = run.YARDSTICK_REFERENCE_S
    measurement.yardsticks = [4 * reference] * 3 + [reference]
    metrics = run.end_to_end(measurement)
    assert metrics["setup_s"]["value"] == pytest.approx(1.0)
    # the per-phase medians 3.0 and 2.0, not the median rep sum 4.0
    assert metrics["rep_s"]["value"] == pytest.approx(2.5)
    assert metrics["area_clbs"]["value"] == 7


class BreaksAfterOneRep:
    """A workload whose every iteration after the first raises."""

    def __init__(self):
        self.iterations = 0

    def setup(self):
        self.iterations += 1
        if self.iterations > 1:
            raise RuntimeError("state leaked into the next iteration")

    def rep(self, _ready):
        return Rep(ops=1, phases={"a": 0.001}, exact={"area_clbs": 7})

    def failed_ops(self, exact, reference):
        return 0


def test_failing_iterations_do_not_keep_the_run_going():
    measurement = run.Measurement(BreaksAfterOneRep(), None)
    measurement.run(seconds=0.05)
    # the warm-up passed, then MIN_REPS tries raised and the run ended
    assert measurement.reps == []
    assert measurement.failed == run.MIN_REPS
    assert measurement.attempted == 1 + run.MIN_REPS


# -- the traced run against the untraced one ---------------------------------

@pytest.fixture(scope="module")
def traced():
    """One untraced and one traced iteration of every workload (seed 1)."""
    results = {}
    for name, cls in WORKLOADS.items():
        measurement = run.Measurement(cls(1), None)
        untraced = measurement.iterate(timed=True)
        tracer, rep, wall_ns, distinct = run.traced_iteration(measurement)
        metrics = run.per_layer(measurement, tracer, rep, wall_ns, distinct)
        results[name] = (measurement, untraced, rep, metrics)
    return results


def value(metrics, name):
    return metrics[name]["value"]


@pytest.mark.parametrize("name", ["smd-loop", "elevator-ride"])
def test_traced_step_counts_equal_untraced_exact_metrics(traced, name):
    measurement, untraced, rep, metrics = traced[name]
    assert measurement.failed == 0
    assert value(metrics, "pscp.step_calls") == \
        untraced.exact["configuration_cycles"]
    assert value(metrics, "pscp.instructions_retired") == \
        untraced.exact["instructions_retired"]
    assert rep.exact == untraced.exact


def test_traced_bmc_states_equal_untraced_exact_metric(traced):
    measurement, untraced, rep, metrics = traced["design-flow"]
    assert measurement.failed == 0
    states = sum(untraced.exact[label]["bmc_states"]
                 for label in ("smd", "elevator"))
    assert value(metrics, "analysis.bmc.states") == states
    # the explorer expands each reachable state exactly once
    assert value(metrics, "analysis.bmc.successors_calls") == states


def test_farm_counts_frames_and_guard_binds(traced):
    measurement, untraced, rep, metrics = traced["farm-serve"]
    assert measurement.failed == 0
    assert value(metrics, "resil.frames") > 0
    assert value(metrics, "fault.guard_bind_ms") > 0
    assert 0 < value(metrics, "resil.delta_bytes_ratio") < 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_reports_every_layer_metric(traced, name):
    _measurement, _untraced, _rep, metrics = traced[name]
    assert list(metrics) == [metric.name for metric in METRICS]
    assert value(metrics, "untraced_ms") > 0
    assert value(metrics, "trace_overhead") > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_changed_output_fails_its_ops(traced, name):
    measurement, untraced, _rep, _metrics = traced[name]
    broken = json.loads(json.dumps(untraced.exact))
    broken["area_clbs"] += 1
    workload = measurement.workload
    assert workload.failed_ops(untraced.exact, untraced.exact) == 0
    assert workload.failed_ops(broken, untraced.exact) > 0


def layer_totals(metrics):
    """Summed self time per layer."""
    totals = {}
    for name, entry in metrics.items():
        if name.endswith("_ms") and name != "untraced_ms":
            layer = name.split(".")[0]
            totals[layer] = totals.get(layer, 0.0) + entry["value"]
    return totals


def median_layer_totals(name, seed, reps=3):
    """Per layer, the median summed self time over *reps* traced reps."""
    measurement = run.Measurement(WORKLOADS[name](seed), None)
    measurement.iterate(timed=True)
    samples = [layer_totals(run.per_layer(
        measurement, *run.traced_iteration(measurement)))
        for _ in range(reps)]
    return {layer: statistics.median(sample[layer] for sample in samples)
            for layer in samples[0]}


@pytest.mark.parametrize("name", ["smd-loop", "elevator-ride"])
def test_held_out_seed_keeps_the_layer_ranking(name):
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    tuned = median_layer_totals(name, expected["tuned_seed"])
    held_out = median_layer_totals(name, expected["held_out_seed"])
    # layers within 25% of each other are ties, and layers under 5% of
    # the total are too small to order
    floor = 0.05 * sum(tuned.values())
    big = [layer for layer, ms in tuned.items() if ms > floor]
    assert len(big) >= 3
    for a in big:
        for b in big:
            if tuned[a] > 1.25 * tuned[b]:
                assert held_out[a] > held_out[b], (a, b, tuned, held_out)


def test_the_committed_layout_is_the_benchmark_json():
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == \
        [(m.name, m.unit, m.better) for m in METRICS]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smd-loop",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
