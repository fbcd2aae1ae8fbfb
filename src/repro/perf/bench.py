"""Seeded perf-bench harness: pinned workloads, reproducible numbers.

``repro bench`` (and ``scripts/run_benches.py``) runs a fixed set of
workloads — the SMD closed loop on the paper's final architecture, the
elevator chart under its periodic stimulus, and a supervised machine farm
over a seeded event stream — with the warmup + interleaved median-of-k
discipline of :mod:`repro.perf.timing`, and emits one machine-readable
document (``BENCH_6.json``).

Every workload contributes four sections:

* ``determinism`` — simulated outcomes (cycles, positions, items
  processed).  Byte-exact run to run and machine to machine; any drift is
  a simulator bug, not noise.
* ``latency`` — dispatch/deadline latency digests straight from
  :meth:`repro.obs.metrics.Histogram.summary` (simulated cycles/ticks, so
  also exact).
* ``wall`` + derived throughput — host nanoseconds.  Only comparable
  within a declared tolerance, and across processes only when the
  environment fingerprints match.
* ``profile`` — the opcode-level :class:`~repro.obs.perfprof.PerfProfiler`
  top-N from one untimed repetition: where the *host* time goes.  Modeled
  cycles and call counts are exact; wall shares are informational.  Its
  ``sla_memo`` entry is the workload's SLA memo traffic
  (:attr:`repro.sla.Pla.memo_stats`) over every repetition, the profiled
  one included.

The committed baseline lives at ``benchmarks/perf_baseline.json``;
``repro bench --compare`` (see :mod:`repro.perf.compare`) diffs a fresh
run against it and fails on regressions.
"""

from __future__ import annotations

import platform
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.perf.timing import (
    LegTiming,
    calibration_spin,
    measure_interleaved,
)

#: reserved leg name for the host-speed yardstick timed alongside the
#: workloads (parenthesized so it can never collide with a workload)
CALIBRATION_LEG = "(calibration)"

#: bump when the shape of the emitted document changes
BENCH_SCHEMA_VERSION = 1

#: the document name (and default output filename stem) for this PR's bench
BENCH_ID = "BENCH_6"

WORKLOAD_NAMES = ("smd", "elevator", "farm")


def fingerprint() -> Dict[str, str]:
    """The environment key wall-clock comparisons are gated on."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class BenchWorkload:
    """One pinned workload: built once (as :attr:`system`), run once per
    repetition.

    ``run_rep()`` simulates from a fresh machine and returns the rep's
    ``{"determinism": ..., "latency": ..., "counts": ...}`` record —
    everything in it is simulated state, so identical across reps.
    ``profile(top)`` runs one extra untimed rep with an opcode-level
    profiler attached and returns its JSON digest.
    """

    name: str = "?"

    def run_rep(self) -> Dict[str, Any]:
        raise NotImplementedError

    def profile(self, top: int) -> Dict[str, Any]:
        raise NotImplementedError


def _latency_digest(metrics, suffix: str) -> Dict[str, Any]:
    """``Histogram.summary()`` for every histogram named ``*.{suffix}``."""
    digest: Dict[str, Any] = {}
    for name in metrics.names():
        if not name.endswith(suffix):
            continue
        instrument = metrics[name]
        if hasattr(instrument, "summary"):
            digest[name] = instrument.summary()
    return digest


class SmdBench(BenchWorkload):
    """The paper's final architecture against the fast-motor physics.

    One move command, bounded at 20000 configuration cycles — the same
    closed loop as ``benchmarks/bench_closed_loop.py`` but sized so a
    median-of-k measurement stays in CI budget.
    """

    name = "smd"

    def __init__(self) -> None:
        from repro.flow import build_system
        from repro.isa import MD16_TEP
        from repro.workloads import (
            SMD_MUTUAL_EXCLUSIONS,
            SMD_ROUTINES,
            smd_chart,
        )

        arch = MD16_TEP.with_(n_teps=2, microcode_optimized=True,
                              mutual_exclusions=SMD_MUTUAL_EXCLUSIONS)
        self.system = build_system(smd_chart(), SMD_ROUTINES, arch,
                                   specialize=True)

    # mirror scripts/check_overhead.py's fast motors
    def _motors(self):
        from repro.workloads.motors import MotorSpec

        return {
            "X": MotorSpec("X", 50_000.0, 0.025e-3, 1.25, 2000.0),
            "Y": MotorSpec("Y", 50_000.0, 0.025e-3, 1.25, 2000.0),
            "Phi": MotorSpec("Phi", 9_000.0, 0.1, 900.0, 0.0),
        }

    def _run(self, profiler=None) -> Dict[str, Any]:
        from repro.obs import MetricsRegistry
        from repro.workloads import MoveCommand, SmdClosedLoop

        metrics = MetricsRegistry()
        loop = SmdClosedLoop(self.system, motor_specs=self._motors(),
                             metrics=metrics)
        if profiler is not None:
            loop.machine.attach_profiler(profiler)
        report = loop.run([MoveCommand(60, 45, 8)],
                          max_configuration_cycles=20000)
        return {
            "determinism": {
                "total_cycles": report.total_cycles,
                "configuration_cycles": report.configuration_cycles,
                "final_positions": report.final_positions,
                "commands_completed": report.commands_completed,
                "misses": sum(d.misses for d in report.deadline_reports),
            },
            "latency": _latency_digest(metrics, ".latency_cycles"),
            "counts": {
                "reference_cycles": report.total_cycles,
                "configuration_cycles": report.configuration_cycles,
                "instructions_retired":
                    loop.machine.executor.instructions_executed,
            },
        }

    def run_rep(self) -> Dict[str, Any]:
        return self._run()

    def profile(self, top: int) -> Dict[str, Any]:
        from repro.obs import PerfProfiler

        profiler = PerfProfiler(level="opcode")
        self._run(profiler)
        return profiler.to_json(top=top)


class ElevatorBench(BenchWorkload):
    """The elevator chart under a pinned-seed stimulus.

    ``POWER_ON`` wakes the bank, then every configuration cycle offers the
    constrained events at their declared periods (their consumption
    latencies feed the deadline histograms) plus one seeded driver event —
    dispatches, floor arrivals, door timers — so the cabs actually ride.
    """

    name = "elevator"
    # sized so one rep is >~100 ms: tiny legs drown in scheduler noise
    # and flake the two-run stability tolerance on busy hosts
    CYCLES = 2000
    SEED = 3

    def __init__(self) -> None:
        from repro.flow import build_system
        from repro.isa import MD16_TEP
        from repro.workloads.elevator import (
            ELEVATOR_MUTUAL_EXCLUSIONS,
            ELEVATOR_ROUTINES,
            elevator_chart,
        )

        arch = MD16_TEP.with_(
            n_teps=2, microcode_optimized=True,
            mutual_exclusions=ELEVATOR_MUTUAL_EXCLUSIONS)
        self.system = build_system(elevator_chart(), ELEVATOR_ROUTINES,
                                   arch, specialize=True)

    def _run(self, profiler=None) -> Dict[str, Any]:
        import random

        from repro.obs import MetricsRegistry
        from repro.pscp.trace import DeadlineMonitor

        machine = self.system.make_machine()
        if profiler is not None:
            machine.attach_profiler(profiler)
        monitor = DeadlineMonitor(self.system.chart)
        constrained = sorted(monitor.periods)
        next_arrival = {event: 0 for event in constrained}
        rng = random.Random(self.SEED)
        driver = sorted(set(self.system.chart.events)
                        - set(monitor.periods) - {"POWER_ON"})
        machine.step({"POWER_ON"})
        for _ in range(self.CYCLES - 1):
            due = {rng.choice(driver)}
            for event in constrained:
                if next_arrival[event] <= machine.time:
                    due.add(event)
                    monitor.arrival(event, machine.time)
                    next_arrival[event] = (machine.time
                                           + monitor.periods[event])
            monitor.observe(machine.step(due))
        machine.flush_trace()
        metrics = MetricsRegistry()
        monitor.publish(metrics)
        reports = monitor.reports()
        return {
            "determinism": {
                "reference_cycles": machine.time,
                "configuration_cycles": machine.cycle_count,
                "instructions_retired":
                    machine.executor.instructions_executed,
                "consumed": {r.event: r.consumed for r in reports},
                "misses": sum(r.misses for r in reports),
            },
            "latency": _latency_digest(metrics, ".latency_cycles"),
            "counts": {
                "reference_cycles": machine.time,
                "configuration_cycles": machine.cycle_count,
                "instructions_retired":
                    machine.executor.instructions_executed,
            },
        }

    def run_rep(self) -> Dict[str, Any]:
        return self._run()

    def profile(self, top: int) -> Dict[str, Any]:
        from repro.obs import PerfProfiler

        profiler = PerfProfiler(level="opcode")
        self._run(profiler)
        return profiler.to_json(top=top)


class FarmBench(BenchWorkload):
    """A supervised two-worker farm over a seeded event stream.

    No chaos: this bench measures the steady-state farm machinery
    (admission, dispatch, checkpointing), not fault recovery.  Dispatch
    latency comes from the workers' ``dispatch_latency_ticks`` histograms.
    """

    name = "farm"
    WORKERS = 2
    ITEMS = 96
    SEED = 1

    def __init__(self) -> None:
        from repro.flow import build_system
        from repro.isa import MD16_TEP
        from repro.workloads import (
            SMD_MUTUAL_EXCLUSIONS,
            SMD_ROUTINES,
            smd_chart,
        )

        arch = MD16_TEP.with_(n_teps=2, microcode_optimized=True,
                              mutual_exclusions=SMD_MUTUAL_EXCLUSIONS)
        self.system = build_system(smd_chart(), SMD_ROUTINES, arch,
                                   specialize=True)

    def _run(self, profiler=None) -> Dict[str, Any]:
        from repro.obs import MetricsRegistry
        from repro.resil import RestartPolicy, Supervisor, \
            generate_event_stream

        metrics = MetricsRegistry()
        supervisor = Supervisor.for_system(
            self.system, n_workers=self.WORKERS, queue_capacity=8,
            policy=RestartPolicy(max_restarts=3, checkpoint_every=16),
            metrics=metrics)
        if profiler is not None:
            for worker in supervisor.workers:
                # one shared profiler: attribution aggregates the farm
                worker.machine.attach_profiler(profiler)
        stream = generate_event_stream(self.system.chart.events,
                                       self.ITEMS, seed=self.SEED)
        report = supervisor.run(stream, arrivals_per_tick=4,
                                batch_per_worker=2)
        latency = {}
        for worker in supervisor.workers:
            latency[worker.latency.name] = worker.latency.summary()
        return {
            "determinism": {
                "ticks": report.ticks,
                "submitted": report.submitted,
                "accepted": report.accepted,
                "processed": report.processed,
                "shed": dict(sorted(report.shed.items())),
                "restarts": report.restarts,
                "conservation_violations": report.conservation(),
            },
            "latency": latency,
            "counts": {
                "items_processed": report.processed,
                "supervisor_ticks": report.ticks,
                "reference_cycles": sum(
                    w.machine.time for w in supervisor.workers),
            },
        }

    def run_rep(self) -> Dict[str, Any]:
        return self._run()

    def profile(self, top: int) -> Dict[str, Any]:
        from repro.obs import PerfProfiler

        # routine level: the farm rep dispatches thousands of routines and
        # the opcode level's per-instruction clock reads would dominate
        profiler = PerfProfiler(level="routine")
        self._run(profiler)
        return profiler.to_json(top=top)


_WORKLOAD_FACTORIES: Dict[str, Callable[[], BenchWorkload]] = {
    "smd": SmdBench,
    "elevator": ElevatorBench,
    "farm": FarmBench,
}


# ---------------------------------------------------------------------------
# the harness
# ---------------------------------------------------------------------------

def _throughput(counts: Dict[str, Any], wall_median_ns: float,
                wall_best_ns: int) -> Dict[str, Any]:
    result: Dict[str, Any] = {}
    reference = counts.get("reference_cycles")
    if reference:
        result["ns_per_reference_cycle"] = wall_median_ns / reference
    config = counts.get("configuration_cycles")
    if config:
        result["configuration_cycles_per_second"] = \
            config / (wall_median_ns / 1e9)
    items = counts.get("items_processed")
    if items:
        result["items_per_second"] = items / (wall_median_ns / 1e9)
    return result


def run_bench(workloads: Optional[Sequence[str]] = None, repeats: int = 3,
              warmup: int = 1, profile_top: int = 10,
              progress: Optional[Callable[[str], None]] = None
              ) -> Dict[str, Any]:
    """Run the bench suite and return the ``BENCH_6`` document.

    *workloads* defaults to all of :data:`WORKLOAD_NAMES`; *repeats* is the
    ``k`` of median-of-k (``warmup`` extra untimed reps precede it).  The
    returned document is JSON-ready.
    """
    names = list(workloads) if workloads else list(WORKLOAD_NAMES)
    unknown = [name for name in names if name not in _WORKLOAD_FACTORIES]
    if unknown:
        raise ValueError(
            f"unknown workload(s) {unknown}; known: {WORKLOAD_NAMES}")
    say = progress if progress is not None else (lambda message: None)

    built: Dict[str, BenchWorkload] = {}
    for name in names:
        say(f"building workload {name} ...")
        built[name] = _WORKLOAD_FACTORIES[name]()

    say(f"timing {len(names)} workload(s) + calibration interleaved "
        f"({repeats} rep(s) + {warmup} warmup) ...")
    legs: Dict[str, Callable[[], Any]] = {
        name: built[name].run_rep for name in names}
    # the host-speed yardstick rides the same rounds as the workloads so
    # it samples the same bursts of machine-load noise
    legs[CALIBRATION_LEG] = calibration_spin
    timings = measure_interleaved(legs, rounds=repeats, warmup=warmup)

    document: Dict[str, Any] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "bench_id": BENCH_ID,
        "fingerprint": fingerprint(),
        # wall comparisons normalize by this (see repro.perf.compare)
        "calibration_ns": int(timings[CALIBRATION_LEG].median_ns),
        "config": {"repeats": repeats, "warmup": warmup,
                   "profile_top": profile_top},
        "workloads": {},
    }
    for name in names:
        timing: LegTiming = timings[name]
        rep = timing.payload
        say(f"profiling workload {name} ...")
        profile = built[name].profile(profile_top)
        profile["sla_memo"] = built[name].system.pla.memo_stats._asdict()
        document["workloads"][name] = {
            "determinism": rep["determinism"],
            "latency": rep["latency"],
            "counts": rep["counts"],
            "wall": {
                "repeats": repeats,
                "median_ns": timing.median_ns,
                "best_ns": timing.best_ns,
                "samples_ns": list(timing.times_ns),
            },
            "throughput": _throughput(rep["counts"], timing.median_ns,
                                      timing.best_ns),
            "profile": profile,
        }
    return document
