#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload smd-loop --seed 1 --seconds 25 \
        --trace 0

Each iteration is ``setup()`` then ``rep()`` from fresh machines.  The
first iteration is a warm-up: its outputs are checked, its times are
not used.  Iterations then repeat for ``--seconds`` (at least
``MIN_REPS`` of them), and every rep's exact outputs are checked against
the committed reference for the seed (``perfbench/expected.json``), or
against the warm-up's when the seed has none.

``--trace 0`` reports the end-to-end metrics (medians over the reps).
``--trace 1`` does the same untraced reps, then one more iteration with
spans around every layer boundary (see ``perfbench/layers.py``), writes
the spans to ``.perfbench_out/`` and reports the per-layer metrics.  The
last line of standard output is always the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_REPS = 3
SPANS_DIR = ROOT / ".perfbench_out"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

#: the yardstick's time on the reference host: ``setup_s`` and ``rep_s``
#: are scaled to it (see ``Measurement.host_scale``)
YARDSTICK_REFERENCE_S = 0.03
#: before each iteration the yardstick runs for this share of the
#: previous one, so that its samples cover the whole run
YARDSTICK_SHARE = 0.15

END_TO_END = (
    ("setup_s", "s"),
    ("rep_s", "s"),
    ("peak_rss_mb", "MB"),
    ("area_clbs", "CLBs"),
)
#: per-layer metrics taken from the untraced reps' own timings
UNTRACED_RATES = ("pscp.sim_cycles_per_s", "flow.ladder_s",
                  "analysis.verify_s", "resil.items_per_s",
                  "resil.inproc_items_per_s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def yardstick(items=15, most=5):
    """A fixed pure-Python job that uses no program code: breadth-first
    search over the subsets of *items* with at most *most* members.

    On a VM shared with other tenants the host's speed can drift by
    1.7x over minutes, and this job slows down with it.  Scaling a run's
    times by the yardstick's median over the run cancels much of that
    drift and none of a change to the program.
    """
    start = frozenset()
    depth = {start: 0}
    frontier = [start]
    while frontier:
        following = []
        for state in frontier:
            for item in range(items):
                successor = state ^ {item}
                if len(successor) <= most and successor not in depth:
                    depth[successor] = depth[state] + 1
                    following.append(successor)
        frontier = following
    return len(depth)


def normalized(exact):
    """Exact outputs as they read back from JSON (tuples become lists)."""
    return json.loads(json.dumps(exact, sort_keys=True))


def committed_reference(workload_name, seed):
    if not EXPECTED.exists():
        return None
    with open(EXPECTED) as handle:
        committed = json.load(handle)
    entries = committed["workloads"].get(workload_name, {})
    return entries.get(str(seed), entries.get("any"))


class Measurement:
    """Timings and correctness tallies of one run."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.setups = []
        self.reps = []
        self.iterations = []
        self.yardsticks = []

    def iterate(self, timed: bool):
        """One setup + rep; returns the rep, or ``None`` if it raised."""
        gc.collect()
        start = time.perf_counter()
        try:
            ready = self.workload.setup()
            setup_s = time.perf_counter() - start
            rep = self.workload.rep(ready)
        except Exception:  # a raising op is a failed op; keep measuring
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            return None
        iteration_s = time.perf_counter() - start
        self.check(rep)
        if timed:
            self.setups.append(setup_s)
            self.reps.append(rep)
            self.iterations.append(iteration_s)
        return rep

    def check(self, rep):
        rep.exact = normalized(rep.exact)
        if self.reference is None:
            self.reference = rep.exact
        self.attempted += rep.ops
        self.failed += min(rep.ops, self.workload.failed_ops(
            rep.exact, self.reference))

    def time_yardstick(self, seconds: float):
        """Time the yardstick until *seconds* have passed, at least once."""
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            yardstick()
            ended = time.perf_counter()
            self.yardsticks.append(ended - began)
            if ended - start >= seconds:
                return

    def run(self, seconds: float):
        self.iterate(timed=False)  # warm-up
        start = time.perf_counter()
        last = 0.0
        tries = 0
        # at least MIN_REPS tries, so that failing ones cannot keep the
        # run going past its time
        while (tries < MIN_REPS
               or time.perf_counter() - start + last <= seconds):
            began = time.perf_counter()
            self.time_yardstick(YARDSTICK_SHARE * last)
            self.iterate(timed=True)
            tries += 1
            last = time.perf_counter() - began
        self.time_yardstick(YARDSTICK_SHARE * last)

    def host_scale(self):
        """The factor from this run's host speed to the reference host's.

        It is ``(reference / median yardstick sample) ** elasticity``.
        The workload's elasticity is how much its time follows the
        yardstick's as the host's speed drifts (see ``Workload``).  One
        factor per run: scaling each iteration by the samples next to it
        added the yardstick's own second-scale noise and made the spread
        worse.
        """
        return (YARDSTICK_REFERENCE_S / statistics.median(self.yardsticks)
                ) ** self.workload.elasticity

    def rep_s(self):
        """Unscaled: the sum over the rep's phases of each phase's median,
        so that a slow moment in one phase does not pick the sample of
        the others."""
        return sum(statistics.median(rep.phases[phase] for rep in self.reps)
                   for phase in self.reps[0].phases)

    def median_rate(self, name):
        return statistics.median(rep.rates.get(name, 0.0)
                                 for rep in self.reps)


def peak_rss_mb():
    """The largest high-water mark of this process and of any child it
    has joined (the farm's shards); ru_maxrss is in KiB on Linux."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def end_to_end(measurement):
    exact = measurement.reps[-1].exact
    scale = measurement.host_scale()
    values = {
        "setup_s": statistics.median(measurement.setups) * scale,
        "rep_s": measurement.rep_s() * scale,
        "peak_rss_mb": peak_rss_mb(),
        "area_clbs": exact["area_clbs"],
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def traced_iteration(measurement):
    """One more iteration with every layer boundary wrapped."""
    from perfbench.layers import install
    from perfbench.tracing import Tracer

    tracer = Tracer()
    distinct_cr = set()
    hooks = {"sla.enabled": lambda args, result: distinct_cr.add(args[1])}
    gc.collect()
    install(tracer, hooks)
    try:
        start = time.perf_counter_ns()
        rep = measurement.iterate(timed=False)
        wall_ns = time.perf_counter_ns() - start
    finally:
        tracer.restore()
    if rep is None:
        raise RuntimeError("the traced iteration raised")
    return tracer, rep, wall_ns, len(distinct_cr)


def per_layer(measurement, tracer, rep, wall_ns, distinct_cr):
    from perfbench.layers import BOUNDARIES, METRICS
    from perfbench.tracing import (
        durations_ns,
        percentile,
        self_times,
        top_level_ns,
    )

    selfs = self_times(tracer.spans)
    calls = tracer.calls()
    steps = durations_ns(tracer.spans, "pscp.step")
    values = {}
    for boundary in BOUNDARIES:
        values[f"{boundary.span}_calls"] = calls.get(boundary.span, 0)
        if not boundary.count_only:
            values[f"{boundary.span}_ms"] = selfs.get(boundary.span, 0) / 1e6
    values["pscp.step_p50_us"] = percentile(steps, 0.50) / 1e3
    values["pscp.step_p99_us"] = percentile(steps, 0.99) / 1e3
    values["sla.distinct_cr"] = distinct_cr
    for name in UNTRACED_RATES:
        values[name] = measurement.median_rate(name)
    for metric in METRICS:
        if metric.name in rep.counts:
            values[metric.name] = rep.counts[metric.name]
    values["untraced_ms"] = (wall_ns - top_level_ns(tracer.spans)) / 1e6
    values["trace_overhead"] = (wall_ns / 1e9) / statistics.median(
        measurement.iterations)
    metrics = {}
    for metric in METRICS:
        metrics[metric.name] = {"value": values.get(metric.name, 0),
                                "unit": metric.unit}
    return metrics


def write_spans(workload, seed, tracer):
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"{workload}-seed{seed}.spans.json"
    with open(path, "w") as handle:
        json.dump(tracer.to_json(), handle)
    return path


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    # the checkout's own sources, never an installed copy
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS, reap_children

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    reference = committed_reference(args.workload, args.seed)
    if reference is None:
        print(f"note: no committed reference for seed {args.seed}; "
              f"checking every rep against the warm-up")
    measurement = Measurement(workload, reference)
    try:
        measurement.run(args.seconds)
        if not measurement.reps:
            print("error: no rep completed", file=sys.stderr)
            return 1
        if args.trace:
            tracer, rep, wall_ns, distinct_cr = traced_iteration(measurement)
            metrics = per_layer(measurement, tracer, rep, wall_ns,
                                distinct_cr)
            print(f"spans: {write_spans(args.workload, args.seed, tracer)}")
        else:
            metrics = end_to_end(measurement)
    finally:
        leftover = reap_children()
    if leftover:
        print(f"error: {leftover} child process(es) were left running",
              file=sys.stderr)
        measurement.failed += 1

    report(args, measurement, metrics)
    print(json.dumps({
        "correct": measurement.failed == 0,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": metrics,
    }))
    return 0


def report(args, measurement, metrics):
    """Human-readable lines ahead of the JSON result."""
    print(f"{args.workload} seed {args.seed}: {len(measurement.reps)} "
          f"rep(s) after one warm-up; {measurement.failed} of "
          f"{measurement.attempted} op(s) failed")
    if not args.trace:
        samples = measurement.yardsticks
        print(f"  host scale {measurement.host_scale():.4f} (yardstick "
              f"median {statistics.median(samples):.4f} s over "
              f"{len(samples)} samples, elasticity "
              f"{measurement.workload.elasticity}); unscaled setup_s "
              f"{statistics.median(measurement.setups):.6g}, rep_s "
              f"{measurement.rep_s():.6g}")
        for name in UNTRACED_RATES:
            if any(name in rep.rates for rep in measurement.reps):
                print(f"  {name:<28} {measurement.median_rate(name):.6g}")
        for name, entry in metrics.items():
            print(f"  {name:<28} {entry['value']:.6g} {entry['unit']}")
        return
    from perfbench.layers import METRICS

    print(f"  {'metric':<31} {'value':>12} {'unit':<6} should move | "
          f"predicted flat")
    for metric in METRICS:
        value = metrics[metric.name]["value"]
        print(f"  {metric.name:<31} {value:>12.6g} {metric.unit:<6} "
              f"{metric.moves} | {metric.flat}")


if __name__ == "__main__":
    sys.exit(main())
