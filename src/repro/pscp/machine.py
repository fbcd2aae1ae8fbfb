"""The complete PSCP machine (Fig. 1).

Assembles the synthesized SLA, the Configuration Register, the Transition
Address Table, the scheduler and the TEP(s) executing compiled transition
routines into one steppable machine:

1. at the start of a configuration cycle, external events (plus events the
   TEPs raised last cycle) are sampled into the CR;
2. the SLA (the synthesized PLA, guard signals applied) produces the enabled
   transition addresses into the TAT;
3. the scheduler copies the CR's condition part into the condition caches
   and dispatches the transitions round-robin to the TEPs; each transition
   stub marshals its action's constant arguments and calls the compiled
   routine; at the end the cache is copied back to the CR;
4. state updates are applied, the event part of the CR is reset, and the
   cycle's length (in reference-clock cycles) is the scheduler overhead plus
   the makespan of the TEP queues.

Execution of routines is sequential and deterministic (index order);
parallelism across TEPs is a timing model — see
:mod:`repro.pscp.scheduler`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.isa.codegen import CompiledProgram
from repro.isa.isa import Imm, Instruction, LabelRef, Op
from repro.isa.microcode import cycle_cost
from repro.pscp.condcache import ConditionCacheBridge
from repro.pscp.cr import ConfigurationRegister
from repro.pscp.ports import PortBus
from repro.pscp.scheduler import (
    DISPATCH_OVERHEAD_CYCLES,
    SLA_OVERHEAD_CYCLES,
    DispatchPlan,
    round_robin_dispatch,
)
from repro.pscp.tep import Tep
from repro.sla.synth import Pla, synthesize
from repro.sla.table import TransitionAddressTable
from repro.statechart.labels import action_arguments, action_routine_name
from repro.statechart.model import Chart, Transition


class MachineError(Exception):
    """Raised for construction or stepping problems."""


# ---------------------------------------------------------------------------
# transition stubs
# ---------------------------------------------------------------------------

def _resolve_argument(argument: str, compiled: CompiledProgram) -> int:
    argument = argument.strip()
    if argument in compiled.enum_values:
        return compiled.enum_values[argument]
    try:
        if argument.lower().startswith("0x"):
            return int(argument, 16)
        if argument.lower().startswith("b:"):
            return int(argument[2:], 2)
        return int(argument)
    except ValueError:
        raise MachineError(
            f"cannot resolve action argument {argument!r}: transition label "
            "arguments must be integers or enum members") from None


def _builtin_stub_body(routine: str, transition, compiled: CompiledProgram):
    """Builtin actions in labels (``SetTrue(XFINISH)`` — Fig. 5) compile to
    a single CR/cache instruction in the stub, no routine call needed."""
    from repro.isa.isa import SignalRef

    ops = {"SetTrue": Op.CSET, "SetFalse": Op.CCLR, "Raise": Op.EVSET}
    if routine not in ops:
        return None
    arguments = action_arguments(transition.action)
    if len(arguments) != 1:
        raise MachineError(
            f"transition {transition.describe()}: {routine} takes one name")
    name = arguments[0]
    pool = (compiled.maps.events if routine == "Raise"
            else compiled.maps.conditions)
    if name not in pool:
        raise MachineError(
            f"transition {transition.describe()}: unknown "
            f"{'event' if routine == 'Raise' else 'condition'} {name!r}")
    return [Instruction(ops[routine], SignalRef(pool[name], name),
                        comment=transition.action)]


# ---------------------------------------------------------------------------
# the machine
# ---------------------------------------------------------------------------

@dataclass
class MachineStep:
    """What one configuration cycle did."""

    fired: List[Transition]
    configuration: FrozenSet[str]
    cycle_length: int
    start_time: int
    end_time: int
    plan: Optional[DispatchPlan]
    events_sampled: FrozenSet[str]
    events_raised: FrozenSet[str]
    #: faults that bit this cycle (injector attached) and detections the
    #: guard recorded; both stay ``()`` on the fault-free path so an
    #: empty-plan run is indistinguishable from a no-injector run
    faults: Tuple = ()
    recoveries: Tuple = ()

    @property
    def quiescent(self) -> bool:
        return not self.fired


class PscpMachine:
    """SLA + CR + scheduler + TAT + TEP(s) + compiled routines."""

    def __init__(
        self,
        chart: Chart,
        compiled: CompiledProgram,
        pla: Optional[Pla] = None,
        port_bus: Optional[PortBus] = None,
        param_names: Optional[Dict[str, List[str]]] = None,
    ) -> None:
        self.chart = chart
        self.compiled = compiled
        self.arch = compiled.arch
        self.pla = pla if pla is not None else synthesize(chart)
        self.cr = ConfigurationRegister(self.pla.layout)
        self.ports = port_bus if port_bus is not None else PortBus()
        self.tat = TransitionAddressTable()
        self._param_names = param_names or {}

        stub_instructions, entries = build_transition_stubs(
            chart, compiled, param_names or None)
        program = compiled.flat_instructions() + stub_instructions
        for index, label in entries.items():
            self.tat.bind(index, label)
        #: single executor with shared memory; see scheduler docstring
        self.executor = Tep(self.arch, program, ports=self.ports,
                            name="tep-shared")
        self.executor.load_memory(compiled.allocator.initial_values)
        self.cond_cache_bridge = ConditionCacheBridge(
            self.compiled.maps.conditions)
        self._event_index_to_name = {index: name for name, index
                                     in self.compiled.maps.events.items()}
        self._pending_internal_events: Set[str] = set()
        self.time = 0
        self.cycle_count = 0
        # no step history is kept: callers use the steps step()/run()
        # return, or attach a FlightRecorder for a bounded tail
        #: observability: ``None`` keeps every hook a no-op guard
        self.tracer = None
        #: hot-path profiler (:class:`repro.obs.perfprof.PerfProfiler`);
        #: ``None`` keeps every phase mark a no-op guard
        self.profiler = None
        self._tr_machine = self._tr_sla = self._tr_sched = self._tr_bus = 0
        self._tr_teps: List[int] = []
        self._span_names: Dict[int, str] = {}
        self._idle_start: Optional[int] = None
        self._idle_cycles = 0
        #: fault injection / recovery: ``None`` keeps every hook a no-op
        #: guard, same zero-overhead pattern as the tracer
        self.injector = None
        self.guard = None
        #: always-on forensics: ``None`` keeps the hook a no-op guard; an
        #: attached :class:`repro.obs.FlightRecorder` costs one tuple
        #: append per cycle (enforced by ``scripts/check_overhead.py``)
        self.recorder = None
        #: causal lineage: ``None`` keeps every hook a no-op guard; an
        #: attached :class:`repro.obs.LineageTracker` appends compact hop
        #: tuples (digested lazily at query time, never here)
        self.lineage = None
        self.failed_teps: Set[int] = set()
        #: ``None`` until a TEP fails; then the surviving TEP indices the
        #: scheduler round-robins over
        self._available_teps: Optional[List[int]] = None

    # -- observability -----------------------------------------------------
    def attach_tracer(self, tracer) -> None:
        """Start tracing into *tracer* (a :class:`repro.obs.Tracer`).

        Track ids and per-transition span names are pre-computed here so the
        per-cycle hot path does no string formatting.  Pass ``None`` to
        detach and restore the zero-overhead disabled path.
        """
        previous = self.tracer
        if previous is not None:
            self._flush_idle(previous)
        self.tracer = tracer
        self._idle_start = None
        self._idle_cycles = 0
        if tracer is None:
            return
        self._tr_machine = tracer.track("machine")
        self._tr_sla = tracer.track("SLA")
        self._tr_sched = tracer.track("scheduler")
        self._tr_teps = [tracer.track(f"TEP {index}")
                         for index in range(self.arch.n_teps)]
        self._tr_bus = tracer.track("cond-cache bus")
        self._span_names = {}
        for transition in self.chart.transitions:
            routine = (action_routine_name(transition.action)
                       if transition.action else "(no action)")
            self._span_names[transition.index] = (
                f"t{transition.index} {routine}")
        tracer.metadata.setdefault("architecture", self.arch.describe())
        tracer.metadata.setdefault("chart", self.chart.name)
        if self.injector is not None:
            self.injector.attach_tracer(tracer)
        if self.guard is not None:
            self.guard.attach_tracer(tracer)

    def attach_profiler(self, profiler) -> None:
        """Attach a :class:`repro.obs.PerfProfiler`: every ``step()``
        attributes its host wall time across the five step phases, and the
        executor attributes dispatched-routine (and, at the ``opcode``
        level, per-instruction) time.  Pass ``None`` to detach and restore
        the zero-overhead disabled path.  The profiler observes only: the
        simulated cycle counts and ``MachineStep`` stream are identical
        with and without it.
        """
        self.profiler = profiler
        self.executor.profiler = profiler
        if profiler is None:
            return
        for transition in self.chart.transitions:
            routine = (action_routine_name(transition.action)
                       if transition.action else "(no action)")
            profiler.label_names.setdefault(
                f"__t{transition.index}", f"t{transition.index} {routine}")

    def attach_recorder(self, recorder) -> None:
        """Attach a :class:`repro.obs.FlightRecorder`: every configuration
        cycle appends one digest to its bounded ring, so an escalation can
        dump the recent execution history as a forensics bundle.  Pass
        ``None`` to detach and restore the zero-overhead disabled path."""
        self.recorder = recorder
        if recorder is not None:
            recorder.bind(self)

    def attach_lineage(self, lineage) -> None:
        """Attach a :class:`repro.obs.LineageTracker`: the machine then
        records causal hops — injected event latched, latch enabling a
        dispatch, dispatch raising events and writing ports — as compact
        tuples on the tracker's hop log; the port bus logs accesses only
        while a tracker is attached.  Pass ``None`` to detach and restore
        the zero-overhead disabled path."""
        self.lineage = lineage
        self.ports.access_log = None if lineage is None else []
        if lineage is not None:
            lineage.bind(self)

    # -- fault injection and recovery --------------------------------------
    def attach_injector(self, injector) -> None:
        """Attach a :class:`repro.fault.FaultInjector` (or ``None`` to
        detach and restore the zero-overhead disabled path).

        An attached injector with an empty plan leaves the machine
        byte-identical to an un-instrumented one — the fault-free parity
        guarantee the tests assert.
        """
        self.injector = injector
        self.cond_cache_bridge.injector = injector
        self.ports.injector = injector
        if injector is not None:
            injector.bind(self)
            if self.tracer is not None:
                injector.attach_tracer(self.tracer)

    def attach_guard(self, guard) -> None:
        """Attach a :class:`repro.fault.MachineGuard`: arms the
        configuration-cycle watchdog, the exclusivity-set checker and the
        bounded-retry policy.  Pass ``None`` to detach."""
        self.guard = guard
        if guard is not None:
            guard.bind(self)
            if self.tracer is not None:
                guard.attach_tracer(self.tracer)

    def fail_tep(self, index: int) -> None:
        """Mark a TEP failed mid-run; the scheduler re-plans over the
        survivors (graceful timing degradation instead of a crash).  Raises
        :class:`MachineError` only when *no* TEP survives."""
        if not 0 <= index < self.arch.n_teps:
            raise MachineError(
                f"cannot fail TEP {index}: architecture has "
                f"{self.arch.n_teps} TEP(s)")
        if index in self.failed_teps:
            return
        self.failed_teps.add(index)
        survivors = [i for i in range(self.arch.n_teps)
                     if i not in self.failed_teps]
        if self.guard is not None:
            self.guard.on_tep_failed(self.cycle_count, index, survivors)
        if not survivors:
            if self.guard is not None:
                # may raise MachineEscalation instead (farm mode)
                self.guard.on_all_teps_failed(self.cycle_count)
            raise MachineError("all TEPs failed; no executor survives")
        self._available_teps = survivors

    # -- checkpoint/restore -------------------------------------------------
    def snapshot(self, include_attachments: bool = True, timer_bank=None):
        """Capture the complete architectural state as a versioned,
        JSON-serializable :class:`~repro.resil.snapshot.MachineSnapshot`
        (call between steps)."""
        from repro.resil.snapshot import snapshot_machine

        return snapshot_machine(self, include_attachments=include_attachments,
                                timer_bank=timer_bank)

    def restore(self, snapshot, restore_attachments: bool = True,
                timer_bank=None) -> None:
        """Load *snapshot* back into this machine; the continuation is
        step-for-step identical to the original run from that cycle on."""
        from repro.resil.snapshot import restore_machine

        restore_machine(self, snapshot,
                        restore_attachments=restore_attachments,
                        timer_bank=timer_bank)

    def _flush_idle(self, tracer) -> None:
        """Emit the pending coalesced quiescent-cycle span, if any."""
        if self._idle_start is None:
            return
        tracer.span(self._tr_machine, "idle", self._idle_start,
                    self._idle_cycles * SLA_OVERHEAD_CYCLES,
                    {"cycles": self._idle_cycles})
        self._idle_start = None
        self._idle_cycles = 0

    def flush_trace(self) -> None:
        """Flush buffered trace state (call before exporting mid-run)."""
        if self.tracer is not None:
            self._flush_idle(self.tracer)

    # -- stepping ----------------------------------------------------------------
    def step(self, external_events: Iterable[str] = ()) -> MachineStep:
        """Run one configuration cycle."""
        external = set(external_events)
        unknown = external - set(self.chart.events)
        if unknown:
            raise MachineError(f"unknown external events {sorted(unknown)!r}")
        injector = self.injector
        guard = self.guard
        profiler = self.profiler
        _psample = False
        if profiler is not None:
            # phase boundaries are clocked on one step in phase_stride;
            # the rest of the hooks below are inline integer bookkeeping
            profiler.steps += 1
            _psample = profiler.steps % profiler.phase_stride == 0
            if _psample:
                _pclock = profiler.clock
                _pt0 = _pclock()
        if injector is not None:
            # bus faults: drop / duplicate / delay external events
            external = injector.filter_events(self.cycle_count, external)
        internal = self._pending_internal_events
        self._pending_internal_events = set()
        self.cr.sample_events(external, internal)
        if injector is not None:
            # CR bit upsets, RAM flips, TEP failures, stuck ports
            injector.apply_cycle_faults(self.cycle_count, self)
            if guard is not None and injector.state_touched:
                # the exclusivity checker monitors the CR state part
                # directly, so a corrupted state word is caught *before*
                # the SLA evaluates it (a fired transition's entry set can
                # mask the corruption by cycle end)
                problems = guard.check_configuration(self.cr.configuration)
                if problems:
                    self.cr.configuration = guard.on_illegal_configuration(
                        self.cycle_count, problems)
        sampled = frozenset(self.cr.events)
        if _psample:
            _pt1 = _pclock()

        tracer = self.tracer
        enabled = self.pla.enabled(self.cr.bits)
        if injector is not None:
            # stuck-at faults on the SLA product-term outputs
            enabled = injector.filter_enabled(self.cycle_count, enabled)
        retries: List[int] = []
        if guard is not None:
            due = guard.due_retries(self.cycle_count)
            if due:
                # a natural re-firing supersedes the scheduled retry: the
                # dispatch below is the same routine execution either way
                enabled_set = set(enabled)
                retries = [i for i in due if i not in enabled_set]
        self.tat.post(enabled)
        if retries:
            self.tat.post(retries)
        if _psample:
            # trace emission below lands in "dispatch" (tracing and timed
            # profiling are not meant to run together anyway)
            _pt2 = _pclock()
        if tracer is not None:
            if not enabled and not sampled and not retries:
                # quiescent cycle: coalesce into one pending "idle" span
                # instead of paying for per-cycle event emission
                if self._idle_start is None:
                    self._idle_start = self.time
                self._idle_cycles += 1
                tracer = None
            else:
                self._flush_idle(tracer)
                tracer.span(self._tr_sla, "SLA eval", self.time,
                            SLA_OVERHEAD_CYCLES, {"enabled": len(enabled)})
                for name in sorted(sampled):
                    tracer.instant(self._tr_machine, name, self.time)
                words_before = self.cond_cache_bridge.words_total

        transitions = [self.chart.transitions[i] for i in enabled]
        dispatch = enabled + retries
        plan = round_robin_dispatch(
            dispatch, self._routine_of, self.arch,
            self._available_teps) if dispatch else None

        costs: Dict[int, int] = {}
        retired: Optional[Dict[int, int]] = None if tracer is None else {}
        raised_names: Set[str] = set()
        event_index_to_name = self._event_index_to_name
        bridge = self.cond_cache_bridge
        cache = self.executor.condition_cache
        lineage = self.lineage
        ports = self.ports

        while not self.tat.empty:
            index = self.tat.pop()
            assert index is not None
            effect = (injector.dispatch_effect(self.cycle_count, index)
                      if injector is not None else None)
            if lineage is not None and ports.access_log:
                # accesses made outside a dispatch belong to none
                ports.access_log = []
            bridge.copy_in(self.cr, cache)
            self.executor.events_raised = set()
            if retired is not None:
                executed_before = self.executor.instructions_executed
            budget = guard.budgets.get(index) if guard is not None else None
            if effect is None and budget is None:
                costs[index] = self.executor.run(self.tat.entry(index))
                completed = True
            else:
                cost, completed, detected = self._execute_dispatch(
                    index, effect, budget)
                costs[index] = cost
                if not completed and detected:
                    guard.on_watchdog_abort(self.cycle_count, index)
            if retired is not None:
                retired[index] = (self.executor.instructions_executed
                                  - executed_before)
            if lineage is not None:
                # recorded before the abort branch: an aborted dispatch is
                # still a causal hop (its raises stay quarantined — the
                # digester drops them, mirroring the transactional abort).
                # The tracker keeps the log; a port-free dispatch shares ()
                accesses = ports.access_log
                if accesses:
                    ports.access_log = []
                else:
                    accesses = ()
                lineage.on_dispatch(self.cycle_count, index, completed,
                                    self.executor.events_raised, accesses)
            if not completed:
                # aborted or runaway: the routine's condition/event effects
                # are transactional — no copy-back, raised events dropped
                self.executor.events_raised = set()
                continue
            bridge.copy_back(self.cr, cache)
            for event_index in self.executor.events_raised:
                name = event_index_to_name.get(event_index)
                if name is None:
                    raise MachineError(
                        f"routine raised unknown event index {event_index}")
                raised_names.add(name)
            if guard is not None and guard.has_open_abort(index):
                guard.on_retry_success(self.cycle_count, index)

        if _psample:
            _pt3 = _pclock()
        # state update (same per-transition order as the interpreter)
        configuration = set(self.cr.configuration)
        for transition in transitions:
            exited = self.chart.exit_set(transition, frozenset(configuration))
            entered = self.chart.entry_set(transition)
            configuration -= exited
            configuration |= entered
        self.cr.configuration = frozenset(configuration)

        self.cr.reset_events()
        self._pending_internal_events |= raised_names

        if guard is not None and (
                transitions
                or (injector is not None and injector.state_touched)):
            # exclusivity-set check: the natural parity of the Drusinsky
            # encoding — recover to the declared safe state on violation
            problems = guard.check_configuration(self.cr.configuration)
            if problems:
                self.cr.configuration = guard.on_illegal_configuration(
                    self.cycle_count, problems)

        if _psample:
            _pt4 = _pclock()
        makespan = plan.makespan(lambda i: costs[i]) if plan else 0
        cycle_length = SLA_OVERHEAD_CYCLES + makespan
        step = MachineStep(
            fired=transitions,
            configuration=self.cr.configuration,
            cycle_length=cycle_length,
            start_time=self.time,
            end_time=self.time + cycle_length,
            plan=plan,
            events_sampled=sampled,
            events_raised=frozenset(raised_names),
            faults=() if injector is None else injector.drain_cycle_log(),
            recoveries=() if guard is None else guard.drain_cycle_log(),
        )
        if tracer is not None:
            self._trace_cycle(tracer, step, plan, costs, retired,
                              raised_names, words_before)
        if self.recorder is not None:
            self.recorder.record_step(self.cycle_count, step)
        if lineage is not None:
            lineage.on_step(self.cycle_count, step)
        self.time += cycle_length
        self.cycle_count += 1
        if profiler is not None:
            profiler.sla_cycles += SLA_OVERHEAD_CYCLES
            profiler.dispatch_cycles += makespan
            if _psample:
                profiler.phase_sample(_pt0, _pt1, _pt2, _pt3, _pt4,
                                      _pclock())
        return step

    def _execute_dispatch(self, index: int, effect, budget: Optional[int]
                          ) -> Tuple[int, bool, bool]:
        """Run one dispatch under an optional injected *effect* (stall or
        runaway fault) and an optional watchdog *budget*.

        Returns ``(cost, completed, detected)``: the cycles charged, whether
        the routine ran to completion (aborted/runaway routines have their
        condition-cache copy-back and raised events suppressed), and whether
        the watchdog caught the overrun.
        """
        from repro.fault.model import DEFAULT_RUNAWAY_CYCLES, TEP_RUNAWAY
        from repro.pscp.tep import TepBudgetExceeded

        executor = self.executor
        entry = self.tat.entry(index)
        if effect is not None and effect.kind == TEP_RUNAWAY:
            # the routine never returns: without a watchdog the TEP is lost
            # for DEFAULT_RUNAWAY_CYCLES; with one, it is aborted at budget
            if budget is not None:
                return budget, False, True
            return (effect.param or DEFAULT_RUNAWAY_CYCLES), False, False
        cycles_before = executor.cycles
        depth = len(executor.call_stack)
        limit = budget if budget is not None else 1_000_000
        try:
            cost = executor.run(entry, max_cycles=limit)
        except TepBudgetExceeded:
            # watchdog abort: charge exactly the budget, unwind the stack
            del executor.call_stack[depth:]
            executor.cycles = cycles_before + limit
            return limit, False, budget is not None
        if effect is not None:  # TEP_STALL: the routine ran, then hung
            cost += effect.param
            executor.cycles += effect.param
            if budget is not None and cost > budget:
                executor.cycles = cycles_before + budget
                return budget, False, True
        return cost, True, False

    def _trace_cycle(self, tracer, step: MachineStep,
                     plan: Optional[DispatchPlan], costs: Dict[int, int],
                     retired: Dict[int, int], raised_names: Set[str],
                     words_before: int) -> None:
        """Emit this configuration cycle's trace events (tracing enabled)."""
        start, end = step.start_time, step.end_time
        tracer.span(
            self._tr_machine, "cycle", start, step.cycle_length,
            {"cycle": self.cycle_count, "fired": len(step.fired)})
        if plan is not None:
            parallel_start = start + SLA_OVERHEAD_CYCLES
            tracer.span(self._tr_sched, "TAT drain", parallel_start,
                        step.cycle_length - SLA_OVERHEAD_CYCLES,
                        {"transitions": len(plan.order)})
            for index, tep_index in plan.diverted:
                tracer.instant(self._tr_sched, "mutex-serialize",
                               parallel_start,
                               {"transition": index, "tep": tep_index})
            for tep_index, queue in enumerate(plan.queues):
                cursor = parallel_start
                for index in queue:
                    duration = DISPATCH_OVERHEAD_CYCLES + costs[index]
                    tracer.span(
                        self._tr_teps[tep_index], self._span_names[index],
                        cursor, duration,
                        {"transition": index, "cycles": costs[index],
                         "instructions": retired[index]})
                    cursor += duration
        for name in sorted(raised_names):
            tracer.instant(self._tr_machine, f"raise {name}", end)
        words_delta = self.cond_cache_bridge.words_total - words_before
        if words_delta:
            tracer.counter(self._tr_bus, "cache words", end, words_delta)

    def run(self, traces: Iterable[Iterable[str]]) -> List[MachineStep]:
        steps = [self.step(events) for events in traces]
        self.flush_trace()
        return steps

    def _routine_of(self, transition_index: int) -> Optional[str]:
        transition = self.chart.transitions[transition_index]
        if not transition.action:
            return None
        return action_routine_name(transition.action)

    # -- convenience ------------------------------------------------------------
    def condition(self, name: str) -> bool:
        return name in self.cr.conditions

    def in_state(self, name: str) -> bool:
        return name in self.cr.configuration

    def read_global(self, name: str) -> int:
        loc = self.compiled.allocator.locations[name]
        return self.executor.read_variable(loc)

    def write_global(self, name: str, value: int) -> None:
        loc = self.compiled.allocator.locations[name]
        self.executor.write_variable(loc, value)


def build_transition_stubs(
    chart: Chart,
    compiled: CompiledProgram,
    param_names: Optional[Dict[str, List[str]]],
) -> Tuple[List[Instruction], Dict[int, str]]:
    """Stub generation with explicit per-routine parameter name lists.

    ``param_names`` maps routine name to its parameter names in order.  The
    compiled objects do not record parameter names, so the caller (the
    flow) should pass them; with ``None`` every routine is assumed
    parameterless, and a label that passes arguments raises.
    """
    instructions: List[Instruction] = []
    entries: Dict[int, str] = {}
    arch = compiled.arch
    for transition in chart.transitions:
        label = f"__t{transition.index}"
        entries[transition.index] = label
        body: List[Instruction] = []
        if transition.action:
            routine = action_routine_name(transition.action)
            builtin = _builtin_stub_body(routine, transition, compiled)
            if builtin is not None:
                body.extend(builtin)
                body.append(Instruction(Op.TRET, comment=transition.describe()))
                body[0] = body[0].with_label(label)
                instructions.extend(body)
                continue
            if routine not in compiled.objects:
                raise MachineError(
                    f"transition {transition.describe()}: routine "
                    f"{routine!r} was not compiled")
            arguments = action_arguments(transition.action)
            if param_names is not None:
                params = param_names.get(routine, [])
            elif arguments:
                raise MachineError(
                    f"transition {transition.describe()}: parameter names "
                    f"for {routine!r} are required to marshal arguments")
            else:
                params = []
            if len(arguments) != len(params):
                raise MachineError(
                    f"transition {transition.describe()}: {routine} takes "
                    f"{len(params)} argument(s), label passes "
                    f"{len(arguments)}")
            mask = (1 << arch.data_width) - 1
            for argument, param_name in zip(arguments, params):
                value = _resolve_argument(argument, compiled)
                loc = compiled.allocator.locations[f"{routine}.{param_name}"]
                for word_index, operand in enumerate(loc.words):
                    word = (value >> (word_index * arch.data_width)) & mask
                    body.append(Instruction(Op.LDA, Imm(word)))
                    body.append(Instruction(Op.STA, operand))
            body.append(Instruction(Op.CALL, LabelRef(routine),
                                    comment=transition.action))
        body.append(Instruction(Op.TRET, comment=transition.describe()))
        body[0] = body[0].with_label(label)
        instructions.extend(body)
    return instructions, entries


def stub_wcet(transition: Transition, compiled: CompiledProgram,
              param_names: Optional[Dict[str, List[str]]] = None) -> int:
    """Static worst-case cycles of one transition's stub + routine.

    This is the per-transition quantity the timing validator sums along
    event cycles (plus the scheduler's dispatch overhead).
    """
    arch = compiled.arch
    wcets = compiled.wcets()
    if transition.wcet_override is not None:
        # "otherwise explicit timing constraints must be specified"
        return transition.wcet_override
    total = cycle_cost(Instruction(Op.TRET), arch)
    if transition.action:
        routine = action_routine_name(transition.action)
        if routine in ("SetTrue", "SetFalse", "Raise"):
            from repro.isa.isa import SignalRef
            op = {"SetTrue": Op.CSET, "SetFalse": Op.CCLR,
                  "Raise": Op.EVSET}[routine]
            return total + cycle_cost(Instruction(op, SignalRef(0)), arch)
        arguments = action_arguments(transition.action)
        params = (param_names or {}).get(routine, [""] * len(arguments))
        for argument, param_name in zip(arguments, params):
            key = f"{routine}.{param_name}"
            if key in compiled.allocator.locations:
                loc = compiled.allocator.locations[key]
                for word_index in range(loc.n_words):
                    total += cycle_cost(Instruction(Op.LDA, Imm(0)), arch)
                    total += cycle_cost(
                        Instruction(Op.STA, loc.word(word_index)), arch)
        total += cycle_cost(Instruction(Op.CALL, LabelRef(routine)), arch)
        total += wcets[routine]
    return total
