"""The four benchmark workloads.

Each workload makes its inputs from its seed in ``__init__`` (the
program only ever sees the generated move list, stimulus or stream),
then repeats ``setup()`` + ``rep()``:

* ``setup()`` turns the frozen chart and routine text under
  ``perfbench/inputs/`` into something ready to run.  The runner times it
  as ``setup_s``.
* ``rep()`` runs the measured phase once from fresh machines and returns
  a :class:`Rep`: the host seconds of the program calls it timed, the
  exact outputs, and the counts the per-layer report uses.
* ``failed_ops(exact, reference)`` checks one rep's exact outputs against
  a reference.  It returns how many of the rep's ops failed, using checks
  that do not depend on the code being timed: committed values, sums of
  the commanded steps, and the farm's conservation identities.
"""

from __future__ import annotations

import multiprocessing
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

from repro.analysis import lint_system
from repro.analysis.bmc import VIOLATED, check_system
from repro.flow import Improver, build_system
from repro.isa import MD16_TEP
from repro.pscp import DeadlineMonitor
from repro.resil import RestartPolicy, Supervisor, WorkItem
from repro.resil.shardfarm import ShardConfig, ShardSupervisor
from repro.statechart import parse_chart
from repro.workloads import MoveCommand, SmdClosedLoop
from repro.workloads.motors import MotorSpec

INPUTS = Path(__file__).resolve().parent / "inputs"

#: ``MutualExclusions`` of the two charts, as the paper's final
#: architectures declare them (frozen here so the ruler is independent of
#: ``repro.workloads``)
SMD_EXCLUSIONS = frozenset(frozenset(pair) for pair in (
    ("DecodeOpcode", "GetByte"), ("DecodeOpcode", "LoadNext"),
    ("GetByte", "LoadNext"), ("PrepareMove", "StartMove")))
ELEVATOR_EXCLUSIONS = frozenset(frozenset(pair) for pair in (
    ("Plan0", "Plan1"), ("Plan0", "QueueCall"), ("Plan1", "QueueCall")))


def read_input(name: str) -> str:
    return (INPUTS / name).read_text()


def final_arch(exclusions):
    """The paper's final architecture: two 16-bit M/D TEPs, optimized
    microcode."""
    return MD16_TEP.with_(n_teps=2, microcode_optimized=True,
                          mutual_exclusions=exclusions)


def timed(fn, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


@dataclass
class Rep:
    """One repetition of a workload's measured phase."""

    #: ops attempted (moves, cycle windows, ladders/lints/verdicts, items)
    ops: int
    #: host seconds per timed program call; ``rep_s`` sums each one's
    #: median over the run
    phases: Dict[str, float]
    #: outputs that must repeat exactly (compared against the reference)
    exact: Dict[str, Any]
    #: exact per-layer counts for the traced report
    counts: Dict[str, Any] = field(default_factory=dict)
    #: per-layer rates derived from this rep's own timings
    rates: Dict[str, float] = field(default_factory=dict)


class Workload:
    """One workload; its inputs come from the seed given to ``__init__``."""

    name = "?"
    #: how much the workload's time follows the yardstick's as the host's
    #: speed drifts: the slope of log(unscaled time) against log(yardstick
    #: median) over 33-46 runs per workload on a shared 2-vCPU VM.  The
    #: runner scales times by the yardstick's ratio to this power
    elasticity = 1.0

    def setup(self) -> Any:
        raise NotImplementedError

    def rep(self, ready: Any) -> Rep:
        raise NotImplementedError

    def failed_ops(self, exact: Dict[str, Any],
                   reference: Dict[str, Any]) -> int:
        raise NotImplementedError


class SmdLoop(Workload):
    """``SmdClosedLoop`` on the paper's final architecture."""

    name = "smd-loop"
    elasticity = 0.75
    #: BENCH_6's fast motors: X and Y share one spec, so swapping their
    #: step counts leaves the simulated time unchanged
    MOTORS = {
        "X": MotorSpec("X", 50_000.0, 0.025e-3, 1.25, 2000.0),
        "Y": MotorSpec("Y", 50_000.0, 0.025e-3, 1.25, 2000.0),
        "Phi": MotorSpec("Phi", 9_000.0, 0.1, 900.0, 0.0),
    }
    #: the longer X/Y leg of each move; it sets the move's duration
    MAJOR_STEPS = (36, 24, 30)
    MAX_CONFIGURATION_CYCLES = 200_000

    def __init__(self, seed: int) -> None:
        # the seed orders the major legs and draws each move's minor leg
        # (a third of the major up to all of it), its Phi steps, the X/Y
        # swap and every direction.  The minor leg and Phi change the
        # events the machine sees but not the move's duration, so the
        # simulated reference cycles stay within a few of each other
        rng = random.Random(seed)
        self.moves: List[MoveCommand] = []
        for major in rng.sample(self.MAJOR_STEPS, len(self.MAJOR_STEPS)):
            x, y = major, rng.randint(major // 3, major)
            if rng.random() < 0.5:
                x, y = y, x
            self.moves.append(MoveCommand(x * rng.choice((1, -1)),
                                          y * rng.choice((1, -1)),
                                          rng.randint(1, 6)
                                          * rng.choice((1, -1))))

    def setup(self):
        chart = parse_chart(read_input("smd.sc"))
        return build_system(chart, read_input("smd.c"),
                            final_arch(SMD_EXCLUSIONS), specialize=True)

    def rep(self, system) -> Rep:
        start = time.perf_counter()
        loop = SmdClosedLoop(system, motor_specs=self.MOTORS)
        report = loop.run(self.moves, max_configuration_cycles=
                          self.MAX_CONFIGURATION_CYCLES)
        seconds = time.perf_counter() - start
        instructions = loop.machine.executor.instructions_executed
        misses = sum(r.misses for r in report.deadline_reports)
        return Rep(
            ops=len(self.moves),
            phases={"sim": seconds},
            exact={
                "sim_ref_cycles": report.total_cycles,
                "configuration_cycles": report.configuration_cycles,
                "instructions_retired": instructions,
                "deadline_misses": misses,
                "commands_completed": report.commands_completed,
                "truncated": report.truncated,
                "final_positions": dict(sorted(
                    report.final_positions.items())),
                "area_clbs": system.area().total_clbs,
            },
            counts={"pscp.instructions_retired": instructions,
                    "pscp.deadline_misses": misses,
                    "pscp.sim_ref_cycles": report.total_cycles,
                    "sla.product_terms": system.pla.product_terms},
            rates={"pscp.sim_cycles_per_s": report.total_cycles / seconds})

    def commanded_positions(self) -> Dict[str, int]:
        """The positions every motor must end at: the sums of the
        commanded steps (the motors start at 0)."""
        return {"Phi": sum(m.phi_steps for m in self.moves),
                "X": sum(m.x_steps for m in self.moves),
                "Y": sum(m.y_steps for m in self.moves)}

    def failed_ops(self, exact, reference) -> int:
        sound = (exact["commands_completed"] == len(self.moves)
                 and not exact["truncated"]
                 and exact["final_positions"] == self.commanded_positions()
                 and exact == reference)
        return 0 if sound else len(self.moves)


class ElevatorRide(Workload):
    """The elevator chart under BENCH_6's stimulus, a longer ride."""

    name = "elevator-ride"
    elasticity = 0.85
    CYCLES = 8000
    #: one op is one window of this many configuration cycles
    WINDOW = 500

    def __init__(self, seed: int) -> None:
        chart = parse_chart(read_input("elevator.sc"))
        constrained = {event.name for event in chart.constrained_events()}
        driver = sorted(set(chart.events) - constrained - {"POWER_ON"})
        rng = random.Random(seed)
        #: one unconstrained driver event per cycle after POWER_ON
        self.stimulus = [rng.choice(driver) for _ in range(self.CYCLES - 1)]

    def setup(self):
        chart = parse_chart(read_input("elevator.sc"))
        return build_system(chart, read_input("elevator.c"),
                            final_arch(ELEVATOR_EXCLUSIONS), specialize=True)

    def _ride(self, system):
        machine = system.make_machine()
        monitor = DeadlineMonitor(system.chart)
        periods = monitor.periods
        constrained = sorted(periods)
        next_arrival = {event: 0 for event in constrained}
        windows = []
        machine.step({"POWER_ON"})
        for cycle, driver_event in enumerate(self.stimulus, start=2):
            due = {driver_event}
            now = machine.time
            for event in constrained:
                if next_arrival[event] <= now:
                    due.add(event)
                    monitor.arrival(event, now)
                    next_arrival[event] = now + periods[event]
            monitor.observe(machine.step(due))
            if cycle % self.WINDOW == 0:
                windows.append(machine.time)
        machine.flush_trace()
        return machine, monitor.reports(), windows

    def rep(self, system) -> Rep:
        seconds, (machine, reports, windows) = timed(self._ride, system)
        instructions = machine.executor.instructions_executed
        misses = sum(r.misses for r in reports)
        return Rep(
            ops=len(windows),
            phases={"sim": seconds},
            exact={
                "sim_ref_cycles": machine.time,
                "configuration_cycles": machine.cycle_count,
                "instructions_retired": instructions,
                "deadline_misses": misses,
                "arrivals": {r.event: r.arrivals for r in reports},
                "consumed": {r.event: r.consumed for r in reports},
                "window_end_cycles": windows,
                "area_clbs": system.area().total_clbs,
            },
            counts={"pscp.instructions_retired": instructions,
                    "pscp.deadline_misses": misses,
                    "pscp.sim_ref_cycles": machine.time,
                    "sla.product_terms": system.pla.product_terms},
            rates={"pscp.sim_cycles_per_s": machine.time / seconds})

    def failed_ops(self, exact, reference) -> int:
        windows = self.CYCLES // self.WINDOW
        ours, theirs = exact["window_end_cycles"], \
            reference["window_end_cycles"]
        totals = {k: v for k, v in exact.items() if k != "window_end_cycles"}
        sound = (exact["configuration_cycles"] == self.CYCLES
                 and len(ours) == windows
                 and all(exact["consumed"][event] <= arrivals
                         for event, arrivals in exact["arrivals"].items())
                 and exact["deadline_misses"]
                 <= sum(exact["arrivals"].values())
                 and totals == {k: v for k, v in reference.items()
                                if k != "window_end_cycles"})
        if not sound:
            return windows
        return sum(1 for a, b in zip(ours, theirs) if a != b)


class DesignFlow(Workload):
    """Ladder, lint and model check on both charts."""

    name = "design-flow"
    #: the model checker slows down about half as much as the yardstick
    elasticity = 0.5
    CHARTS = ("smd", "elevator")

    def __init__(self, seed: int) -> None:
        # the charts are fixed; the seed orders each property file's lines
        rng = random.Random(seed)
        self.properties = {}
        for label in self.CHARTS:
            lines = read_input(f"{label}.props").splitlines()
            rng.shuffle(lines)
            self.properties[label] = "\n".join(lines) + "\n"

    def setup(self):
        ready = {}
        for label in self.CHARTS:
            chart = parse_chart(read_input(f"{label}.sc"))
            source = read_input(f"{label}.c")
            system = build_system(chart, source,
                                  final_arch(self.EXCLUSIONS[label]),
                                  specialize=True)
            ready[label] = (chart, source, system)
        return ready

    #: each chart's ladder: its starting architecture and TEP limit
    LADDERS = {"smd": ({}, 2), "elevator": ({"initial_arch": MD16_TEP}, 3)}
    EXCLUSIONS = {"smd": SMD_EXCLUSIONS, "elevator": ELEVATOR_EXCLUSIONS}

    def _ladder(self, ready, label):
        chart, source, _ = ready[label]
        options, max_teps = self.LADDERS[label]
        return Improver(chart, source,
                        mutual_exclusions=self.EXCLUSIONS[label],
                        max_teps=max_teps, **options).run()

    def _verify(self, ready, label):
        chart, source, system = ready[label]
        lint = lint_system(chart, source, system.arch, specialize=True,
                           system=system)
        check = check_system(chart, source, system,
                             properties_text=self.properties[label])
        return lint, check

    def rep(self, ready) -> Rep:
        # each chart's ladder and verification is its own phase, so the
        # runner takes a median per phase
        phases: Dict[str, float] = {}
        ladders, verified = {}, {}
        for label in self.CHARTS:
            phases[f"ladder:{label}"], ladders[label] = timed(
                self._ladder, ready, label)
        for label in self.CHARTS:
            phases[f"verify:{label}"], verified[label] = timed(
                self._verify, ready, label)
        ladder_s = sum(phases[f"ladder:{label}"] for label in self.CHARTS)
        verify_s = sum(phases[f"verify:{label}"] for label in self.CHARTS)
        exact: Dict[str, Any] = {}
        states = edges = 0
        for label in self.CHARTS:
            lint, check = verified[label]
            states += check.nodes
            edges += sum(len(out) for out in check.space.edges.values())
            exact[label] = {
                "ladder": [[step.rung, step.area_clbs]
                           for step in ladders[label].steps],
                "lint": sorted(d.code for d in lint.diagnostics),
                "bmc_states": check.nodes,
                "complete": check.complete,
                "verdicts": {v.prop.text: v.status for v in check.verdicts},
                "witness_cycles": {
                    v.prop.text: len(v.witness.trace)
                    for v in check.verdicts if v.status == VIOLATED},
                "witnesses_replayed": all(
                    v.witness.replayed for v in check.verdicts
                    if v.status == VIOLATED),
            }
        exact["area_clbs"] = sum(ladders[label].steps[-1].area_clbs
                                 for label in self.CHARTS)
        return Rep(
            ops=self.ops(exact),
            phases=phases,
            exact=exact,
            counts={"analysis.bmc.states": states,
                    "analysis.bmc.edges": edges,
                    "flow.ladder_rungs": sum(len(ladders[label].steps)
                                             for label in self.CHARTS),
                    "sla.product_terms": sum(
                        ready[label][2].pla.product_terms
                        for label in self.CHARTS)},
            rates={"flow.ladder_s": ladder_s, "analysis.verify_s": verify_s})

    def ops(self, exact) -> int:
        """Two ladders, two lints and every verdict."""
        return sum(2 + len(exact[label]["verdicts"])
                   for label in self.CHARTS)

    def failed_ops(self, exact, reference) -> int:
        failed = 0
        for label in self.CHARTS:
            ours, theirs = exact[label], reference[label]
            failed += ours["ladder"] != theirs["ladder"]
            failed += ours["lint"] != theirs["lint"]
            sound = (ours["bmc_states"] == theirs["bmc_states"]
                     and ours["complete"] and ours["witnesses_replayed"]
                     and ours["witness_cycles"] == theirs["witness_cycles"])
            for text, status in theirs["verdicts"].items():
                failed += not sound or ours["verdicts"].get(text) != status
        if exact["area_clbs"] != reference["area_clbs"]:
            failed = max(failed, 1)
        return failed


class FarmServe(Workload):
    """One seeded stream through the distributed and the in-process farm."""

    name = "farm-serve"
    elasticity = 0.7
    ITEMS = 2000
    QUEUE_CAPACITY = 8
    CHECKPOINT_EVERY = 16
    #: the supervisor and one shard are two processes, as many as a
    #: 2-core host has; with two shards, some runs read up to 2.5x slower
    #: while the yardstick did not move.  The count is fixed, so the
    #: committed outputs do not depend on the host
    SHARDS = 1
    #: one shard's batch per tick: nothing is shed or rejected
    ARRIVALS_PER_TICK = 2
    BATCH = 2

    def __init__(self, seed: int) -> None:
        chart = parse_chart(read_input("smd.sc"))
        pool = sorted(chart.events)
        rng = random.Random(seed)
        # the shape of repro's stream generator: 1..2 distinct events and
        # a priority in [0, 3) per item
        self.stream = [
            WorkItem(seq, tuple(sorted(rng.sample(pool, rng.randrange(1, 3)))),
                     rng.randrange(3))
            for seq in range(self.ITEMS)]

    def setup(self):
        chart = parse_chart(read_input("smd.sc"))
        system = build_system(chart, read_input("smd.c"),
                              final_arch(SMD_EXCLUSIONS), specialize=True)
        inproc = Supervisor.for_system(
            system, n_workers=self.SHARDS,
            queue_capacity=self.QUEUE_CAPACITY,
            policy=RestartPolicy(max_restarts=3,
                                 checkpoint_every=self.CHECKPOINT_EVERY))
        farm = ShardSupervisor(
            system, n_shards=self.SHARDS,
            config=ShardConfig(queue_capacity=self.QUEUE_CAPACITY,
                               checkpoint_every=self.CHECKPOINT_EVERY,
                               batch=self.BATCH))
        farm.start()
        return system, inproc, farm

    def rep(self, ready) -> Rep:
        system, inproc, farm = ready
        try:
            dist_s, dist = timed(farm.run, self.stream,
                                 arrivals_per_tick=self.ARRIVALS_PER_TICK)
        finally:
            farm.shutdown()
        inproc_s, local = timed(inproc.run, self.stream,
                                arrivals_per_tick=self.ARRIVALS_PER_TICK,
                                batch_per_worker=self.BATCH)
        transport = [shard.transport or {} for shard in farm.shards]
        chains = [shard.chain_stats or {} for shard in farm.shards]
        deltas = sum(c.get("deltas", 0) for c in chains)
        fulls = sum(c.get("fulls", 0) for c in chains)
        delta_ratio = 0.0
        if deltas and fulls:
            delta_ratio = ((sum(c["delta_bytes"] for c in chains) / deltas)
                           / (sum(c["full_bytes"] for c in chains) / fulls))
        inproc_cycles = sum(w.machine.time for w in inproc.workers)
        exact = {
            "distributed": self._engine(dist),
            "inproc": self._engine(local),
            "distributed_conservation": dist.conservation(),
            "inproc_conservation": local.conservation(),
            "sim_ref_cycles": inproc_cycles,
            "area_clbs": system.area().total_clbs,
        }
        return Rep(
            ops=2 * len(self.stream),
            phases={"distributed": dist_s, "inproc": inproc_s},
            exact=exact,
            counts={
                "resil.frames": sum(t.get("frames_sent", 0)
                                    + t.get("frames_received", 0)
                                    for t in transport),
                "resil.frame_bytes": sum(t.get("bytes_sent", 0)
                                         + t.get("bytes_received", 0)
                                         for t in transport),
                "resil.delta_bytes_ratio": delta_ratio,
                "resil.checkpoints": dist.checkpoints + local.checkpoints,
                "resil.shed": (sum(dist.shed.values())
                               + sum(local.shed.values())),
                "resil.restarts": (dist.respawns + dist.promotions
                                   + local.restarts),
                "pscp.instructions_retired": sum(
                    w.machine.executor.instructions_executed
                    for w in inproc.workers),
                "pscp.sim_ref_cycles": inproc_cycles,
                "sla.product_terms": system.pla.product_terms,
            },
            rates={"resil.items_per_s": len(self.stream) / dist_s,
                   "resil.inproc_items_per_s": len(self.stream) / inproc_s})

    @staticmethod
    def _engine(report) -> Dict[str, Any]:
        return {"submitted": report.submitted, "accepted": report.accepted,
                "processed": report.processed,
                "shed": dict(sorted(report.shed.items())),
                "rejected": dict(sorted(report.rejected.items()))}

    def failed_ops(self, exact, reference) -> int:
        failed = 0
        for engine in ("distributed", "inproc"):
            ours = exact[engine]
            sound = (ours == reference[engine]
                     and not exact[f"{engine}_conservation"]
                     and ours["submitted"] == len(self.stream))
            if not sound:
                failed += len(self.stream)
        if (exact["sim_ref_cycles"] != reference["sim_ref_cycles"]
                or exact["area_clbs"] != reference["area_clbs"]):
            failed = max(failed, 1)
        return failed


WORKLOADS = {cls.name: cls
             for cls in (SmdLoop, ElevatorRide, DesignFlow, FarmServe)}


def reap_children() -> int:
    """Join (killing if needed) every child process still alive; returns
    how many had been left behind."""
    leftover = multiprocessing.active_children()
    for process in leftover:
        process.kill()
        process.join(timeout=5)
    return len(leftover)
