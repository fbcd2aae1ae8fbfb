"""Hot-path performance observatory: where the *simulator's own* time goes.

The tracer (:mod:`repro.obs.tracer`) records where the *simulated*
reference-clock cycles go; this module records where the *host's*
wall-clock nanoseconds go while producing them — the measurement rung under
every raw-speed optimization (ROADMAP: the compiled execution backend).
A :class:`PerfProfiler` attaches to a :class:`~repro.pscp.machine.PscpMachine`
and attributes call counts, self/cumulative wall time and modeled cycle
cost along three axes:

* **step phases** — the fixed stations of ``machine.step()``:
  ``sample-events`` (CR sampling + fault injection), ``sla-eval`` (the PLA
  enable product + TAT post), ``dispatch`` (the TAT drain: condition-cache
  copies and TEP routine execution), ``state-update`` (entry/exit sets +
  exclusivity check) and ``finalize`` (trace/recorder/lineage bookkeeping);
* **routines** — per TEP entry label (transition stubs ``__tN`` and, at
  the ``opcode`` level, the compiled action routines they CALL), with
  *self* vs *cumulative* wall time separated by a frame stack;
* **opcodes** — per ISA opcode (``opcode`` level only): retire counts,
  modeled microprogram cycles (:func:`repro.isa.microcode.cycle_cost`) and
  measured wall time, the table that says which interpreter arms a
  compiled backend must win.

Two detail levels trade attribution depth for overhead:

* ``level="routine"`` (default) costs two clock reads per dispatched
  routine plus a *stride-sampled* set of phase boundaries — clock reads
  on one configuration cycle in ``phase_stride`` (default 8), everything
  else inline integer bookkeeping — cheap enough that
  ``scripts/check_overhead.py`` holds it to the same hard <5% budget as
  the flight recorder.  Sampled phase wall times are scaled estimates
  (``steps / sampled_steps``); calls and modeled cycles stay exact;
* ``level="opcode"`` wraps every executed instruction in clock reads and
  samples every step (``phase_stride=1``, so phase walls are exact).
  Expect whole-multiples of overhead; use it for offline hot-spot hunts
  (``repro bench`` profile reps), never in a timed leg.

Detached (``machine.attach_profiler(None)``, the default) every hook is a
single ``is None`` guard and the simulation is byte-identical to an
un-instrumented machine — the same zero-overhead discipline as the tracer.
The profiler is a pure observer: it never mutates architectural state, so
attached runs produce identical :class:`~repro.pscp.machine.MachineStep`
sequences (asserted by ``tests/test_perfprof.py``).

Rendering: :meth:`PerfProfiler.hotspot_table` (sorted text),
:meth:`PerfProfiler.to_json` (the ``profile`` section of ``BENCH_6.json``)
and :meth:`PerfProfiler.chrome_trace_events` (a self-profile track set that
:func:`repro.obs.export.chrome_trace` merges into the Perfetto export).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: fixed station order of ``machine.step()`` (also the rendering order)
STEP_PHASES: Tuple[str, ...] = (
    "sample-events", "sla-eval", "dispatch", "state-update", "finalize")

#: profiler detail levels
ROUTINE_LEVEL = "routine"
OPCODE_LEVEL = "opcode"


class PhaseStat:
    """One ``machine.step()`` station, over the *sampled* steps only:
    sampled count and raw (unscaled) wall ns."""

    __slots__ = ("samples", "wall_ns")

    def __init__(self) -> None:
        self.samples = 0
        self.wall_ns = 0


class RoutineStat:
    """One TEP entry label / called routine."""

    __slots__ = ("calls", "self_ns", "cum_ns", "cycles", "instructions")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.cum_ns = 0
        self.cycles = 0
        self.instructions = 0


class OpcodeStat:
    """One ISA opcode: retire count, modeled cycles, measured wall ns."""

    __slots__ = ("calls", "wall_ns", "modeled_cycles")

    def __init__(self) -> None:
        self.calls = 0
        self.wall_ns = 0
        self.modeled_cycles = 0


class PerfProfiler:
    """Collects host-time attribution for one machine's hot path.

    ``clock`` must return integer nanoseconds (default
    :func:`time.perf_counter_ns`); tests inject a fake for deterministic
    assertions.  ``level`` is ``"routine"`` (cheap, production-safe) or
    ``"opcode"`` (per-instruction, offline only) — see the module
    docstring for the cost model.

    Self/cumulative accounting uses a frame stack at the ``opcode`` level:
    a CALL opens a frame for the callee, the matching RET closes it, and
    every instruction's wall time lands in the innermost frame's *self*
    while closed frames roll their cumulative total up into the caller.
    (Recursive routines would double-count cumulative time; the TEP's
    64-deep call stack makes deep recursion an execution fault anyway.)
    """

    def __init__(self, level: str = ROUTINE_LEVEL,
                 clock: Optional[Callable[[], int]] = None,
                 phase_stride: Optional[int] = None) -> None:
        if level not in (ROUTINE_LEVEL, OPCODE_LEVEL):
            raise ValueError(f"unknown profiler level {level!r}")
        self.level = level
        self.per_opcode = level == OPCODE_LEVEL
        self.clock: Callable[[], int] = (clock if clock is not None
                                         else time.perf_counter_ns)
        if phase_stride is None:
            phase_stride = 1 if self.per_opcode else 8
        if phase_stride < 1:
            raise ValueError(f"phase_stride must be >= 1, got {phase_stride}")
        #: phase boundaries get clock reads on one step in ``phase_stride``
        self.phase_stride = phase_stride
        self.phases: Dict[str, PhaseStat] = {name: PhaseStat()
                                             for name in STEP_PHASES}
        self.routines: Dict[str, RoutineStat] = {}
        self.opcodes: Dict[str, OpcodeStat] = {}
        #: configuration cycles observed while attached
        self.steps = 0
        #: configuration cycles whose phase boundaries were clocked
        self.sampled_steps = 0
        #: exact modeled dispatch makespans charged while attached (the
        #: SLA overhead is :attr:`sla_cycles`, derived from :attr:`steps`)
        self.dispatch_cycles = 0
        #: pretty names for entry labels (``__t3`` -> ``t3 Work``), bound
        #: by :meth:`repro.pscp.machine.PscpMachine.attach_profiler`
        self.label_names: Dict[str, str] = {}

    # -- hooks (hot path) --------------------------------------------------
    def phase_sample(self, t0: int, t1: int, t2: int, t3: int,
                     t4: int, t5: int) -> None:
        """Record one sampled step's phase boundary timestamps (the five
        stations of ``machine.step()``, in :data:`STEP_PHASES` order).
        ``machine.step()`` takes the clock reads inline and hands them over
        in a single call so the unsampled steps pay only integer
        bookkeeping."""
        phases = self.phases
        stat = phases["sample-events"]
        stat.samples += 1
        stat.wall_ns += t1 - t0
        stat = phases["sla-eval"]
        stat.samples += 1
        stat.wall_ns += t2 - t1
        stat = phases["dispatch"]
        stat.samples += 1
        stat.wall_ns += t3 - t2
        stat = phases["state-update"]
        stat.samples += 1
        stat.wall_ns += t4 - t3
        stat = phases["finalize"]
        stat.samples += 1
        stat.wall_ns += t5 - t4
        self.sampled_steps += 1

    def note_run(self, entry: str, ns: int, cycles: int,
                 instructions: int) -> None:
        """Routine-level attribution: one whole ``Tep.run`` call."""
        stat = self.routines.get(entry)
        if stat is None:
            stat = self.routines[entry] = RoutineStat()
        stat.calls += 1
        stat.self_ns += ns
        stat.cum_ns += ns
        stat.cycles += cycles
        stat.instructions += instructions

    def note_opcode(self, name: str, cycles: int, ns: int) -> None:
        """Opcode-level attribution: one retired instruction."""
        stat = self.opcodes.get(name)
        if stat is None:
            stat = self.opcodes[name] = OpcodeStat()
        stat.calls += 1
        stat.wall_ns += ns
        stat.modeled_cycles += cycles

    # frame records: [name, self_ns, child_cum_ns, cycles, instructions]
    def open_frame(self, frames: List[List[Any]], name: str) -> None:
        frames.append([name, 0, 0, 0, 0])

    def close_frame(self, frames: List[List[Any]]) -> None:
        name, self_ns, child_cum, cycles, instructions = frames.pop()
        cum_ns = self_ns + child_cum
        stat = self.routines.get(name)
        if stat is None:
            stat = self.routines[name] = RoutineStat()
        stat.calls += 1
        stat.self_ns += self_ns
        stat.cum_ns += cum_ns
        stat.cycles += cycles
        stat.instructions += instructions
        if frames:
            frames[-1][2] += cum_ns

    # -- reading back ------------------------------------------------------
    def reset(self) -> None:
        """Forget everything (keep level/clock/stride/name bindings)."""
        self.phases = {name: PhaseStat() for name in STEP_PHASES}
        self.routines.clear()
        self.opcodes.clear()
        self.steps = 0
        self.sampled_steps = 0
        self.dispatch_cycles = 0

    @property
    def sla_cycles(self) -> int:
        """Exact modeled SLA overhead charged while attached: every
        configuration cycle pays the same fixed SLA evaluation."""
        from repro.pscp.scheduler import SLA_OVERHEAD_CYCLES

        return self.steps * SLA_OVERHEAD_CYCLES

    @property
    def phase_scale(self) -> float:
        """Sampled-wall → estimated-total scale (1.0 when every step was
        sampled, i.e. ``phase_stride == 1``)."""
        if not self.sampled_steps:
            return 0.0
        return self.steps / self.sampled_steps

    def phase_report(self) -> List[Tuple[str, int, int, int]]:
        """``(phase, steps, estimated wall ns, modeled cycles)`` rows in
        station order.  Wall is the stride-scaled estimate (exact at
        stride 1); steps and modeled cycles are exact."""
        scale = self.phase_scale
        modeled = {"sla-eval": self.sla_cycles,
                   "dispatch": self.dispatch_cycles}
        return [(name, self.steps,
                 int(self.phases[name].wall_ns * scale),
                 modeled.get(name, 0))
                for name in STEP_PHASES]

    @property
    def wall_ns(self) -> int:
        """Total instrumented wall time (stride-scaled sum over phases)."""
        return sum(row[2] for row in self.phase_report())

    def display(self, label: str) -> str:
        return self.label_names.get(label, label)

    def _routine_rows(self) -> List[Tuple[str, RoutineStat]]:
        return sorted(self.routines.items(),
                      key=lambda item: (-item[1].cum_ns, item[0]))

    def _opcode_rows(self) -> List[Tuple[str, OpcodeStat]]:
        return sorted(self.opcodes.items(),
                      key=lambda item: (-item[1].wall_ns, item[0]))

    def to_json(self, top: int = 20) -> Dict[str, Any]:
        """The ``profile`` section of ``BENCH_6.json``: phases in station
        order, the *top* routines by cumulative wall time, the *top*
        opcodes by wall time.  Wall numbers are host-dependent; the
        regression guard compares structure, not these values."""
        return {
            "level": self.level,
            "steps": self.steps,
            "phase_stride": self.phase_stride,
            "sampled_steps": self.sampled_steps,
            "wall_ns": self.wall_ns,
            "phases": [
                {"phase": name, "calls": calls, "wall_ns": wall_ns,
                 "modeled_cycles": modeled_cycles}
                for name, calls, wall_ns, modeled_cycles
                in self.phase_report()],
            "routines": [
                {"routine": self.display(name), "calls": stat.calls,
                 "self_ns": stat.self_ns, "cum_ns": stat.cum_ns,
                 "modeled_cycles": stat.cycles,
                 "instructions": stat.instructions}
                for name, stat in self._routine_rows()[:top]],
            "opcodes": [
                {"opcode": name, "calls": stat.calls,
                 "wall_ns": stat.wall_ns,
                 "modeled_cycles": stat.modeled_cycles}
                for name, stat in self._opcode_rows()[:top]],
        }

    def hotspot_table(self, top: int = 12) -> str:
        """Sorted plain-text hot-spot report (phases, routines, opcodes)."""
        from repro.flow.report import ascii_table  # deferred: avoids the
        # repro.flow import cycle, same as repro.obs.export

        total = self.wall_ns or 1
        sampled = (" (exact)" if self.phase_stride == 1 else
                   f" (wall sampled 1/{self.phase_stride})")
        parts: List[str] = []
        parts.append(ascii_table(
            ["Phase", "Steps", "Wall ms", "%", "Modeled cycles"],
            [(name, calls, f"{wall_ns / 1e6:.2f}",
              f"{100.0 * wall_ns / total:.1f}", modeled_cycles)
             for name, calls, wall_ns, modeled_cycles
             in self.phase_report()],
            title=f"Step phases ({self.steps} configuration "
                  f"cycles{sampled})"))
        if self.routines:
            parts.append(ascii_table(
                ["Routine", "Calls", "Self ms", "Cum ms", "Cycles",
                 "Instr"],
                [(self.display(name), stat.calls,
                  f"{stat.self_ns / 1e6:.2f}", f"{stat.cum_ns / 1e6:.2f}",
                  stat.cycles, stat.instructions)
                 for name, stat in self._routine_rows()[:top]],
                title=f"Hottest routines (top {top} by cumulative wall)"))
        if self.opcodes:
            parts.append(ascii_table(
                ["Opcode", "Retired", "Wall ms", "%", "Modeled cycles"],
                [(name, stat.calls, f"{stat.wall_ns / 1e6:.2f}",
                  f"{100.0 * stat.wall_ns / total:.1f}",
                  stat.modeled_cycles)
                 for name, stat in self._opcode_rows()[:top]],
                title=f"Hottest opcodes (top {top} by wall)"))
        return "\n\n".join(parts)

    # -- Chrome-trace self-profile track -----------------------------------
    def chrome_trace_events(self, pid: int, top: int = 12
                            ) -> List[Dict[str, Any]]:
        """The profile as one extra trace-event *process*: three tracks
        (step phases, routines, opcodes) of spans laid end to end, one
        microsecond of trace time per microsecond of measured host time.
        :func:`repro.obs.export.chrome_trace` merges these into the
        simulated-cycle tracks' document so a single Perfetto page shows
        both where the simulated cycles went and where the simulator's own
        time went."""
        events: List[Dict[str, Any]] = [{
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": f"self-profile ({self.level})"},
        }]
        tracks: List[Tuple[str, List[Tuple[str, int, Dict[str, Any]]]]] = [
            ("step phases",
             [(name, wall_ns,
               {"steps": calls, "modeled_cycles": modeled_cycles})
              for name, calls, wall_ns, modeled_cycles
              in self.phase_report() if calls]),
            ("routines (cumulative)",
             [(self.display(name), stat.cum_ns,
               {"calls": stat.calls, "self_ns": stat.self_ns,
                "modeled_cycles": stat.cycles})
              for name, stat in self._routine_rows()[:top]]),
            ("opcodes (self)",
             [(name, stat.wall_ns,
               {"retired": stat.calls,
                "modeled_cycles": stat.modeled_cycles})
              for name, stat in self._opcode_rows()[:top]]),
        ]
        tid = 0
        for track_name, spans in tracks:
            if not spans:
                continue
            events.append({"ph": "M", "name": "thread_name", "pid": pid,
                           "tid": tid, "args": {"name": track_name}})
            events.append({"ph": "M", "name": "thread_sort_index",
                           "pid": pid, "tid": tid,
                           "args": {"sort_index": tid}})
            cursor = 0.0
            for name, ns, args in spans:
                duration = ns / 1000.0  # ns -> trace µs
                events.append({"ph": "X", "name": name, "pid": pid,
                               "tid": tid, "ts": cursor, "dur": duration,
                               "args": args})
                cursor += duration
            tid += 1
        return events
