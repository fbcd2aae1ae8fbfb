"""Direct unit tests for the CR runtime object and the dispatch scheduler."""

import pytest

from repro.isa import ArchConfig
from repro.pscp.cr import ConfigurationRegister
from repro.pscp.scheduler import (
    DISPATCH_OVERHEAD_CYCLES,
    round_robin_dispatch,
)
from repro.sla import synthesize
from repro.statechart import ChartBuilder


def small_chart():
    b = ChartBuilder("cr")
    b.event("E1").event("E2")
    b.condition("C1", initial=True).condition("C2")
    with b.or_state("Top", default="A"):
        b.basic("A").transition("B", label="E1")
        b.basic("B")
    return b.build()


class TestConfigurationRegister:
    def make_cr(self):
        chart = small_chart()
        return chart, ConfigurationRegister(synthesize(chart))

    def test_initial_state(self):
        chart, cr = self.make_cr()
        assert cr.configuration == chart.initial_configuration()
        assert cr.conditions == {"C1"}
        assert cr.events == set()

    def test_sample_and_reset_events(self):
        _, cr = self.make_cr()
        cr.sample_events({"E1"}, {"E2"})
        assert cr.events == {"E1", "E2"}
        cr.reset_events()
        assert cr.events == set()

    def test_unknown_event_rejected(self):
        _, cr = self.make_cr()
        with pytest.raises(KeyError):
            cr.sample_events({"GHOST"}, set())

    def test_condition_vector_and_write(self):
        _, cr = self.make_cr()
        assert cr.condition_vector() == {"C1": True, "C2": False}
        cr.write_conditions({"C1": False, "C2": True})
        assert cr.conditions == {"C2"}

    def test_unknown_condition_rejected(self):
        _, cr = self.make_cr()
        with pytest.raises(KeyError):
            cr.write_conditions({"GHOST": True})

    def test_state_update(self):
        chart, cr = self.make_cr()
        conditions = cr.conditions
        (transition,) = chart.transitions  # A -> B
        cr.bits = cr.pla.fire(cr.bits, [transition.index])
        assert "B" in cr.configuration and "A" not in cr.configuration
        assert cr.configuration == (
            chart.initial_configuration()
            - chart.exit_set(transition, chart.initial_configuration())
            | chart.entry_set(transition))
        assert cr.conditions == conditions and cr.events == set()

    def test_bits_roundtrip_through_layout(self):
        chart, cr = self.make_cr()
        cr.sample_events({"E1"}, set())
        events, conditions, states = cr.layout.unpack(cr.bits)
        assert events == {"E1"}
        assert conditions == {"C1"}
        assert states == cr.configuration


class TestDispatchPlan:
    def test_empty_dispatch(self):
        plan = round_robin_dispatch([], lambda i: None, ArchConfig())
        assert plan.queues == [[]]
        assert plan.makespan(lambda i: 0) == 0

    def test_tep_of_lookup(self):
        arch = ArchConfig(n_teps=2)
        plan = round_robin_dispatch([3, 5, 7], lambda i: f"r{i}", arch)
        assert plan.tep_of(3) == 0
        assert plan.tep_of(5) == 1
        assert plan.tep_of(7) == 0
        with pytest.raises(KeyError):
            plan.tep_of(99)

    def test_makespan_includes_dispatch_overhead_per_transition(self):
        plan = round_robin_dispatch([0, 1], lambda i: None, ArchConfig())
        costs = {0: 10, 1: 20}
        assert plan.makespan(lambda i: costs[i]) == \
            30 + 2 * DISPATCH_OVERHEAD_CYCLES

    def test_order_is_index_sorted(self):
        arch = ArchConfig(n_teps=3)
        plan = round_robin_dispatch([9, 1, 5], lambda i: None, arch)
        assert plan.order == [1, 5, 9]

    def test_actionless_transitions_never_excluded(self):
        arch = ArchConfig(n_teps=2, mutual_exclusions=frozenset(
            {frozenset({"X", "Y"})}))
        plan = round_robin_dispatch([0, 1], lambda i: None, arch)
        assert plan.queues == [[0], [1]]
