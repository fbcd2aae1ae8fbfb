"""Every compiled fast path against the slow path it replaces.

* the SLA's ``(mask, value)`` rows and its bounded enabled-set memo
  against literal-by-literal :meth:`ProductTerm.matches` plus guard
  arbitration;
* the SLA's fire-mask kernel and bounded decode table against the chart's
  exit/entry sets, and every edge the bounded model checker builds with
  them against the statechart interpreter;
* every TEP's per-pc cost vector against the unmemoized, microprogram-
  length :func:`cycle_cost`;
* the batch :func:`stub_wcets` against per-transition :func:`stub_wcet`.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.action.check import Checker, Externals
from repro.action.parser import parse_with_preamble
from repro.analysis.bmc.explorer import Explorer, abstract_actions
from repro.flow import build_system
from repro.fuzz.generator import generate_spec, render_chart, render_source
from repro.isa.arch import MD16_TEP, MINIMAL_TEP
from repro.isa.isa import Imm, Instruction, Mem, Op
from repro.isa.microcode import cycle_cost, microprogram
from repro.pscp.machine import stub_wcet, stub_wcets
from repro.pscp.tep import Tep
from repro.sla import synthesize
from repro.statechart.semantics import Interpreter
from repro.sla.synth import DECODE_MEMO_LIMIT, ENABLED_MEMO_LIMIT
from repro.workloads.elevator import ELEVATOR_ROUTINES, elevator_chart
from repro.workloads.smd import SMD_ROUTINES, smd_chart


def reference_enabled(pla, bits):
    """Guard-arbitrated evaluation through ProductTerm.matches."""
    raw = {index for index, terms in pla.transition_terms.items()
           if any(term.matches(bits) for term in terms)}
    return sorted(index for index in raw if not (pla.guards[index] & raw))


class TestSlaMemo:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.booleans(), st.randoms(use_true_random=False))
    def test_memoized_enabled_equals_reference(self, seed, onehot, rng):
        pla = synthesize(render_chart(generate_spec(seed)), onehot=onehot)
        words = [rng.getrandbits(pla.layout.width) for _ in range(24)]
        words += words[:8]  # revisit some words so the memo answers
        for bits in words:
            assert pla.enabled(bits) == reference_enabled(pla, bits)
            raw = [index for index, terms in pla.transition_terms.items()
                   if any(term.matches(bits) for term in terms)]
            assert pla.raw_enabled(bits) == raw
        assert pla.memo_stats.hits >= 8

    def test_memo_stays_at_bound_and_stays_correct(self):
        pla = synthesize(smd_chart())
        width = pla.layout.width
        assert 2 ** width > ENABLED_MEMO_LIMIT + 500
        rng = random.Random(7)
        words = rng.sample(range(2 ** width), ENABLED_MEMO_LIMIT + 500)
        for bits in words:
            pla.enabled(bits)
        stats = pla.memo_stats
        assert stats.size == stats.limit == ENABLED_MEMO_LIMIT
        assert stats.misses == len(words) and stats.hits == 0
        # words past the bound are evaluated directly, never cached, and
        # words cached before the bound still answer from the memo
        for bits in words[-500:] + words[:500]:
            assert pla.enabled(bits) == reference_enabled(pla, bits)
        stats = pla.memo_stats
        assert stats.size == ENABLED_MEMO_LIMIT
        assert stats.hits == 500 and stats.misses == len(words) + 500

    def test_results_do_not_depend_on_arrival_order(self):
        chart = smd_chart()
        forward, backward = synthesize(chart), synthesize(chart)
        rng = random.Random(11)
        words = rng.sample(range(2 ** forward.layout.width),
                           ENABLED_MEMO_LIMIT + 200)
        first = {bits: forward.enabled(bits) for bits in words}
        second = {bits: backward.enabled(bits) for bits in reversed(words)}
        assert first == second

    def test_returned_list_is_not_the_cache(self):
        chart = smd_chart()
        pla = synthesize(chart)
        bits = pla.layout.pack({"POWER"}, set(),
                               chart.initial_configuration())
        expected = pla.enabled(bits)
        assert expected  # the test needs a non-empty enabled set
        returned = pla.enabled(bits)
        returned.append(99)
        returned.clear()
        assert pla.enabled(bits) == expected
        assert pla.enabled(bits) is not pla.enabled(bits)

    def test_pla_is_immutable(self):
        pla = synthesize(smd_chart())
        with pytest.raises(dataclasses.FrozenInstanceError):
            pla.guards = {}
        with pytest.raises(TypeError):
            pla.transition_terms[0] = ()


def reachable_configurations(chart, rng, cycles=60):
    """Configurations the interpreter visits under random events and
    random condition writes."""
    interpreter = Interpreter(chart)
    events, conditions = list(chart.events), list(chart.conditions)
    seen = [interpreter.configuration]
    for _ in range(cycles):
        for name in conditions:
            if rng.random() < 0.2:
                interpreter.set_condition(name, rng.random() < 0.5)
        interpreter.step(name for name in events if rng.random() < 0.3)
        seen.append(interpreter.configuration)
    return list(dict.fromkeys(seen))


def names_next(chart, configuration, transitions):
    """The interpreter's state update: ``cfg - exit_set | entry_set``."""
    configuration = frozenset(configuration)
    for transition in transitions:
        configuration = (configuration
                         - chart.exit_set(transition, configuration)
                         | chart.entry_set(transition))
    return configuration


class TestFireKernel:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000),
           st.booleans(), st.randoms(use_true_random=False))
    def test_kernel_equals_exit_entry_sets(self, seed, onehot, rng):
        chart = render_chart(generate_spec(seed))
        pla = synthesize(chart, onehot=onehot)
        layout = pla.layout

        def decode(bits):
            return pla.decode(bits >> layout.state_offset)

        for configuration in reachable_configurations(chart, rng):
            for transition in chart.transitions:
                if transition.source not in configuration:
                    continue
                conditions = [name for name in chart.conditions
                              if rng.random() < 0.5]
                bits = layout.pack((), conditions, configuration)
                after = pla.fire(bits, [transition.index])
                assert decode(after) == names_next(
                    chart, configuration, [transition])
                # the kernel writes the state part only
                low = (1 << layout.state_offset) - 1
                assert after & low == bits & low
            events = [name for name in chart.events if rng.random() < 0.4]
            conditions = [name for name in chart.conditions
                          if rng.random() < 0.5]
            bits = layout.pack(events, conditions, configuration)
            fired = pla.enabled(bits)
            assert decode(pla.fire(bits, fired)) == names_next(
                chart, configuration,
                [chart.transitions[index] for index in fired])

    def test_decode_stays_at_bound_and_stays_correct(self):
        pla = synthesize(smd_chart(), onehot=True)
        encoding = pla.layout.encoding
        assert 2 ** encoding.width > DECODE_MEMO_LIMIT + 500
        rng = random.Random(5)
        words = rng.sample(range(2 ** encoding.width),
                           DECODE_MEMO_LIMIT + 500)
        for word in words:
            assert pla.decode(word) == encoding.active_states(word)
        assert len(pla._decoded) == DECODE_MEMO_LIMIT
        # the first words stay in the table, later ones are decoded anew
        assert set(pla._decoded) == set(words[:DECODE_MEMO_LIMIT])
        for word in words[-500:] + words[:500]:
            assert pla.decode(word) == encoding.active_states(word)
        assert len(pla._decoded) == DECODE_MEMO_LIMIT


def explorer_for(chart, source, **bounds):
    program = parse_with_preamble(source)
    checked = Checker(program, Externals.from_chart(chart)).analyze()
    return Explorer(chart, abstract_actions(chart, checked), **bounds)


def assert_edges_match_interpreter(chart, space):
    """Every explored edge, replayed on an interpreter placed at its
    source node, fires the same transitions into the same configuration."""
    checked = 0
    for node, edges in space.edges.items():
        configuration, conditions, pending = node
        for edge in edges:
            interpreter = Interpreter(chart)
            interpreter.configuration = configuration
            for name in chart.conditions:
                interpreter.set_condition(name, name in conditions)
            for name in pending:
                interpreter.raise_event(name)
            result = interpreter.step(edge.inputs)
            assert tuple(t.index for t in result.fired) == edge.fired
            assert result.configuration == edge.target[0]
            checked += 1
    return checked


class TestExplorerAgainstInterpreter:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_generated_chart_edges(self, seed):
        spec = generate_spec(seed)
        chart = render_chart(spec)
        explorer = explorer_for(chart, render_source(spec), depth=8,
                                max_states=300)
        assert assert_edges_match_interpreter(chart, explorer.explore())

    @pytest.mark.parametrize("workload", ["smd", "elevator"])
    def test_workload_edges(self, workload):
        chart_of, routines = WORKLOADS[workload]
        chart = chart_of()
        space = explorer_for(chart, routines).explore()
        assert space.complete
        assert assert_edges_match_interpreter(chart, space) >= len(
            space.nodes)


ARCHS = {
    "basic": MINIMAL_TEP,
    "md16": MD16_TEP,
    "microcode-optimized": MD16_TEP.with_(microcode_optimized=True),
    "pipelined": MD16_TEP.with_(pipelined=True),
}
WORKLOADS = {
    "smd": (smd_chart, SMD_ROUTINES),
    "elevator": (elevator_chart, ELEVATOR_ROUTINES),
}


@pytest.mark.parametrize("arch_name", sorted(ARCHS))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tep_cost_vector_equals_microprogram_cost(workload, arch_name):
    chart, routines = WORKLOADS[workload]
    arch = ARCHS[arch_name]
    executor = build_system(chart(), routines, arch).make_machine().executor
    slow_cost = cycle_cost.__wrapped__  # the unmemoized function
    assert len(executor._costs) == len(executor.program)
    for instruction, cost in zip(executor.program, executor._costs):
        assert cost == slow_cost(instruction, arch)
        if not arch.pipelined:
            assert cost == len(microprogram(instruction, arch))


@pytest.mark.parametrize("arch_name", sorted(ARCHS))
def test_tep_charges_the_executed_instructions(arch_name):
    arch = ARCHS[arch_name]
    program = [Instruction(Op.MUL, Mem(0), label="pad"),
               Instruction(Op.LDA, Imm(3), label="entry"),
               Instruction(Op.INC), Instruction(Op.RET)]
    slow_cost = cycle_cost.__wrapped__
    assert Tep(arch, program).run("entry") == sum(
        slow_cost(instruction, arch) for instruction in program[1:])


class _CountingWcets:
    """Wraps a compiled program's ``wcets`` to count (or forbid) calls."""

    def __init__(self, compiled, forbid=False):
        self.compiled = compiled
        self.original = compiled.wcets
        self.forbid = forbid
        self.calls = 0

    def __enter__(self):
        def wcets():
            self.calls += 1
            if self.forbid:
                raise AssertionError("routine WCETs were evaluated")
            return self.original()
        self.compiled.wcets = wcets
        return self

    def __exit__(self, *exc):
        del self.compiled.wcets


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
class TestStubWcets:
    def system(self, workload):
        chart, routines = WORKLOADS[workload]
        return build_system(chart(), routines, MD16_TEP)

    def variants(self, system):
        """The chart's transitions, then override and built-in variants."""
        transitions = list(system.chart.transitions)
        event = next(iter(system.chart.events))
        condition = next(iter(system.chart.conditions))
        return [
            transitions,
            [dataclasses.replace(t, wcet_override=40 + t.index)
             for t in transitions],
            [dataclasses.replace(t, action=f"Raise({event})")
             for t in transitions],
            [dataclasses.replace(t, action=f"SetTrue({condition})")
             for t in transitions],
        ]

    def test_batch_equals_single(self, workload):
        system = self.system(workload)
        for transitions in self.variants(system):
            batch = stub_wcets(transitions, system.compiled,
                               system.param_names)
            assert batch == {
                t.index: stub_wcet(t, system.compiled, system.param_names)
                for t in transitions}

    def test_batch_evaluates_routine_wcets_once(self, workload):
        system = self.system(workload)
        with _CountingWcets(system.compiled) as counter:
            stub_wcets(system.chart.transitions, system.compiled,
                       system.param_names)
        assert counter.calls == 1

    def test_override_and_builtin_skip_routine_wcets(self, workload):
        system = self.system(workload)
        skipping = [t for variant in self.variants(system)[1:]
                    for t in variant]
        with _CountingWcets(system.compiled, forbid=True):
            for transition in skipping:
                stub_wcet(transition, system.compiled, system.param_names)
            stub_wcets(skipping, system.compiled, system.param_names)
