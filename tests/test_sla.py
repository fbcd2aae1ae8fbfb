"""Tests for SLA synthesis: encoding, PLA, BLIF, and — crucially — the
functional equivalence of the synthesized logic with the reference
statechart interpreter."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sla import (
    TransitionAddressTable,
    TatError,
    binary_encoding,
    cr_layout,
    emit_blif,
    evaluate_pla_via_blif,
    onehot_encoding,
    parse_blif,
    synthesize,
)
from repro.statechart import ChartBuilder, Interpreter, StateKind


def blinker():
    b = ChartBuilder("blinker")
    b.event("TICK")
    with b.or_state("Top", default="Off"):
        b.basic("Off").transition("On", label="TICK")
        b.basic("On").transition("Off", label="TICK")
    return b.build()


def rich_chart():
    """An AND composition with guards, triggers and an escape transition."""
    b = ChartBuilder("rich")
    b.event("GO").event("E1").event("E2").event("ABORT")
    b.condition("OK").condition("ARMED")
    with b.or_state("Main", default="Idle"):
        b.basic("Idle").transition("Work", label="GO [OK]")
        with b.and_state("Work") as work:
            with b.or_state("RegA", default="A1"):
                b.basic("A1").transition("A2", label="E1")
                b.basic("A2").transition("A1", label="E2 [ARMED]")
            with b.or_state("RegB", default="B1"):
                b.basic("B1").transition("B2", label="not (E1 or E2)")
                b.basic("B2")
        work.transition("Idle", label="ABORT")
    return b.build()


class TestBinaryEncoding:
    def test_blinker_needs_one_state_bit(self):
        enc = binary_encoding(blinker())
        assert enc.width == 1

    def test_and_regions_sum_bits(self):
        enc = binary_encoding(rich_chart())
        # Main selector (2 children -> 1 bit) + max(Idle=0, Work=RegA(1)+RegB(1))
        assert enc.width == 3

    def test_encode_decode_roundtrip_initial(self):
        chart = rich_chart()
        enc = binary_encoding(chart)
        config = chart.initial_configuration()
        assert enc.active_states(enc.encode(config)) == config

    def test_encode_decode_roundtrip_deep(self):
        chart = rich_chart()
        enc = binary_encoding(chart)
        config = frozenset({"Root", "Main", "Work", "RegA", "A2",
                            "RegB", "B1"})
        assert enc.active_states(enc.encode(config)) == config

    def test_exclusive_states_share_bits(self):
        """The OR children overlay: encoding width << one-hot width."""
        chart = rich_chart()
        assert binary_encoding(chart).width < onehot_encoding(chart).width

    def test_onehot_roundtrip(self):
        chart = rich_chart()
        enc = onehot_encoding(chart)
        config = chart.initial_configuration()
        assert enc.active_states(enc.encode(config)) == config

    def test_term_literals_assert_activity(self):
        chart = rich_chart()
        enc = binary_encoding(chart)
        bits = enc.encode(frozenset({"Root", "Main", "Idle"}))
        for bit, value in enc.term_literals("Idle"):
            assert bool((bits >> bit) & 1) == value


class TestCrLayout:
    def test_layout_order_events_conditions_states(self):
        layout = cr_layout(rich_chart())
        assert layout.event_bits["GO"] == 0
        assert layout.condition_bits["OK"] == 4
        assert layout.state_offset == 6
        assert layout.width == 6 + layout.encoding.width

    def test_pack_unpack_roundtrip(self):
        chart = rich_chart()
        layout = cr_layout(chart)
        config = chart.initial_configuration()
        bits = layout.pack({"GO"}, {"OK"}, config)
        events, conditions, states = layout.unpack(bits)
        assert events == {"GO"}
        assert conditions == {"OK"}
        assert states == config

    def test_input_names_cover_every_bit(self):
        layout = cr_layout(rich_chart())
        names = layout.input_names()
        assert len(names) == layout.width
        assert all(names)
        assert names[0] == "ev_GO"


class TestSynthesis:
    def test_product_term_count_positive(self):
        pla = synthesize(rich_chart())
        assert pla.product_terms >= len(rich_chart().transitions)

    def test_disjunctive_trigger_multiplies_terms(self):
        b = ChartBuilder("disj")
        b.event("A").event("B")
        with b.or_state("Top", default="S"):
            b.basic("S").transition("T", label="A or B")
            b.basic("T")
        pla = synthesize(b.build())
        assert len(pla.transition_terms[0]) == 2

    def test_contradictory_guard_yields_no_terms(self):
        b = ChartBuilder("contra")
        b.event("E").condition("C")
        with b.or_state("Top", default="S"):
            b.basic("S").transition("T", label="E [C and not C]")
            b.basic("T")
        pla = synthesize(b.build())
        assert pla.transition_terms[0] == ()

    def test_unresolved_ref_rejected(self):
        from repro.sla import SynthesisError
        b = ChartBuilder("withref")
        with b.or_state("Top", default="R"):
            b.ref("R", "Other")
        chart = b.build(validate=False)
        with pytest.raises(SynthesisError, match="unresolved"):
            synthesize(chart)

    def test_enabled_matches_interpreter_simple(self):
        chart = blinker()
        pla = synthesize(chart)
        interp = Interpreter(chart)
        bits = pla.layout.pack({"TICK"}, set(), interp.configuration)
        assert pla.enabled(bits) == [0]

    def test_guard_network_suppresses_inner_transition(self):
        chart = rich_chart()
        pla = synthesize(chart)
        config = frozenset({"Root", "Main", "Work", "RegA", "A1",
                            "RegB", "B2"})
        bits = pla.layout.pack({"E1", "ABORT"}, set(), config)
        enabled = pla.enabled(bits)
        fired = [chart.transitions[i] for i in enabled]
        assert [t.label for t in fired] == ["ABORT"]


class TestEquivalenceWithInterpreter:
    """Property: PLA-enabled transitions == interpreter-selected transitions
    for every reachable configuration and random event/condition input."""

    EVENTS = ["GO", "E1", "E2", "ABORT"]
    CONDITIONS = ["OK", "ARMED"]

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(
        st.sets(st.sampled_from(EVENTS)),
        st.sets(st.sampled_from(CONDITIONS))), max_size=8))
    def test_pla_equals_interpreter(self, trace):
        chart = rich_chart()
        pla = synthesize(chart)
        interp = Interpreter(chart)
        for events, true_conditions in trace:
            for name in self.CONDITIONS:
                interp.set_condition(name, name in true_conditions)
            bits = pla.layout.pack(events, true_conditions,
                                   interp.configuration)
            expected = interp.select(interp.enabled(events))
            assert pla.enabled(bits) == [t.index for t in expected]
            interp.step(events)

    @settings(max_examples=40, deadline=None)
    @given(st.sets(st.sampled_from(EVENTS)),
           st.sets(st.sampled_from(CONDITIONS)))
    def test_onehot_and_binary_encodings_agree(self, events, conditions):
        chart = rich_chart()
        binary_pla = synthesize(chart, onehot=False)
        onehot_pla = synthesize(chart, onehot=True)
        interp = Interpreter(chart)
        interp.step({"GO"})  # move somewhere interesting if OK held... may not fire
        config = interp.configuration
        b_bits = binary_pla.layout.pack(events, conditions, config)
        o_bits = onehot_pla.layout.pack(events, conditions, config)
        assert binary_pla.enabled(b_bits) == onehot_pla.enabled(o_bits)


class TestBlif:
    def test_emit_contains_model_sections(self):
        text = emit_blif(synthesize(rich_chart()))
        assert ".model sla" in text
        assert ".inputs" in text and ".outputs" in text and ".end" in text

    def test_parse_roundtrip_evaluates_identically(self):
        chart = rich_chart()
        pla = synthesize(chart)
        interp = Interpreter(chart)
        bits = pla.layout.pack({"GO"}, {"OK"}, interp.configuration)
        assert evaluate_pla_via_blif(pla, bits) == pla.raw_enabled(bits)

    @settings(max_examples=30, deadline=None)
    @given(st.sets(st.sampled_from(["GO", "E1", "E2", "ABORT"])),
           st.sets(st.sampled_from(["OK", "ARMED"])))
    def test_blif_equivalence_random_inputs(self, events, conditions):
        chart = rich_chart()
        pla = synthesize(chart)
        bits = pla.layout.pack(events, conditions,
                               chart.initial_configuration())
        assert evaluate_pla_via_blif(pla, bits) == pla.raw_enabled(bits)

    def test_parse_rejects_garbage(self):
        from repro.sla import BlifError
        with pytest.raises(BlifError):
            parse_blif(".model x\n.latch a b\n.end")

    def test_missing_input_rejected_at_eval(self):
        from repro.sla import BlifError
        model = parse_blif(".model m\n.inputs a b\n.outputs o\n"
                           ".names a b o\n11 1\n.end")
        with pytest.raises(BlifError, match="unassigned"):
            model.evaluate({"a": True})

    def test_vhdl_emission_from_pla(self):
        from repro.hw import emit_sla_vhdl
        pla = synthesize(rich_chart())
        text = emit_sla_vhdl("sla", pla.layout.input_names(),
                             pla.output_names(),
                             pla.as_products_by_output())
        assert "entity sla" in text
        assert "ev_GO" in text


class TestTransitionAddressTable:
    def test_bind_and_lookup(self):
        tat = TransitionAddressTable()
        tat.bind(0, "stub0")
        assert tat.entry(0) == "stub0"
        assert tat.size == 1

    def test_double_bind_rejected(self):
        tat = TransitionAddressTable()
        tat.bind(0, "stub0")
        with pytest.raises(TatError):
            tat.bind(0, "other")

    def test_unbound_lookup_rejected(self):
        with pytest.raises(TatError):
            TransitionAddressTable().entry(3)

    def test_fifo_order(self):
        tat = TransitionAddressTable()
        for index in range(3):
            tat.bind(index, f"s{index}")
        tat.post([2, 0, 1])
        assert [tat.pop(), tat.pop(), tat.pop()] == [2, 0, 1]
        assert tat.pop() is None
        assert tat.empty

    def test_post_unbound_rejected(self):
        tat = TransitionAddressTable()
        with pytest.raises(TatError, match="unbound"):
            tat.post([7])
