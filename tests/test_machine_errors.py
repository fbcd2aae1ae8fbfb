"""Error paths and edge cases of the PSCP machine and stub generation."""

import pytest

from repro.action.check import Externals
from repro.isa import CodeGenerator, MD16_TEP, NameMaps, prepare_program
from repro.pscp import MachineError, PscpMachine, build_transition_stubs
from repro.pscp.machine import _resolve_argument
from repro.statechart import ChartBuilder


def compile_for(chart, src, arch=MD16_TEP):
    externals = Externals.from_chart(chart)
    checked = prepare_program(src, arch, externals)
    compiled = CodeGenerator(checked, arch,
                             maps=NameMaps.from_chart(chart)).compile()
    params = {f.name: [p.name for p in f.params]
              for f in checked.program.functions}
    return compiled, params


class TestStubGeneration:
    def test_unknown_routine_rejected(self):
        b = ChartBuilder("bad")
        b.event("E")
        with b.or_state("T", default="S"):
            b.basic("S").transition("S", label="E/Ghost()")
        chart = b.build()
        compiled, params = compile_for(chart, "void Other() { }")
        with pytest.raises(MachineError, match="Ghost"):
            build_transition_stubs(chart, compiled, params)

    def test_argument_count_mismatch_rejected(self):
        b = ChartBuilder("bad2")
        b.event("E")
        with b.or_state("T", default="S"):
            b.basic("S").transition("S", label="E/F(1, 2)")
        chart = b.build()
        compiled, params = compile_for(chart, "void F(int:16 a) { }")
        with pytest.raises(MachineError, match="argument"):
            build_transition_stubs(chart, compiled, params)

    def test_non_constant_argument_rejected(self):
        b = ChartBuilder("bad3")
        b.event("E")
        with b.or_state("T", default="S"):
            b.basic("S").transition("S", label="E/F(someVariable)")
        chart = b.build()
        compiled, params = compile_for(chart, "void F(int:16 a) { }")
        with pytest.raises(MachineError, match="cannot resolve"):
            build_transition_stubs(chart, compiled, params)

    def test_builtin_settrue_stub_needs_declared_condition(self):
        b = ChartBuilder("bad4")
        b.event("E")
        with b.or_state("T", default="S"):
            b.basic("S").transition("S", label="E/SetTrue(NOPE)")
        chart = b.build()
        compiled, params = compile_for(chart, "void Unused() { }")
        with pytest.raises(MachineError, match="NOPE"):
            build_transition_stubs(chart, compiled, params)

    def test_resolve_argument_forms(self):
        class FakeCompiled:
            enum_values = {"MX": 0, "MPHI": 2}
        assert _resolve_argument("MX", FakeCompiled) == 0
        assert _resolve_argument(" MPHI ", FakeCompiled) == 2
        assert _resolve_argument("42", FakeCompiled) == 42
        assert _resolve_argument("0x10", FakeCompiled) == 16
        assert _resolve_argument("B:101", FakeCompiled) == 5
        with pytest.raises(MachineError):
            _resolve_argument("notAnEnum", FakeCompiled)

    def test_transition_without_action_gets_bare_tret(self):
        b = ChartBuilder("bare")
        b.event("E")
        with b.or_state("T", default="S"):
            b.basic("S").transition("S", label="E")
        chart = b.build()
        compiled, params = compile_for(chart, "void Unused() { }")
        instructions, entries = build_transition_stubs(chart, compiled, params)
        from repro.isa import Op
        assert [i.op for i in instructions] == [Op.TRET]
        assert entries == {0: "__t0"}


class TestMachineEdgeCases:
    def make_machine(self):
        b = ChartBuilder("edge")
        b.event("E").condition("C")
        with b.or_state("T", default="S"):
            b.basic("S").transition("S", label="E [not C]/Bump()")
        chart = b.build()
        compiled, params = compile_for(
            chart, "int:16 n; void Bump() { n = n + 1; }")
        return chart, PscpMachine(chart, compiled, param_names=params)

    def test_guarded_self_loop(self):
        chart, machine = self.make_machine()
        machine.step({"E"})
        assert machine.read_global("n") == 1
        machine.cr.write_conditions({"C": True})
        machine.step({"E"})  # guard now false
        assert machine.read_global("n") == 1

    def test_write_global_roundtrip(self):
        chart, machine = self.make_machine()
        machine.write_global("n", 41)
        machine.step({"E"})
        assert machine.read_global("n") == 42

    def test_history_records_every_cycle(self):
        chart, machine = self.make_machine()
        steps = machine.run([{"E"}, set()])
        assert len(steps) == 2
        assert steps[0].fired and steps[1].quiescent

    def test_step_events_sampled_reported(self):
        chart, machine = self.make_machine()
        step = machine.step({"E"})
        assert step.events_sampled == frozenset({"E"})
