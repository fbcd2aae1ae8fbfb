"""The Configuration Register at run time.

"The state information, together with the encoded events and conditions,
forms the configuration register (CR) of the chart.  Its content describes
the current state of an application."

The register is one int laid out by :class:`~repro.sla.encode.CrLayout`, as
the SLA evaluates it.  The event, condition and configuration name sets are
views of it; the state part can be written as names (guard recovery) or as
a raw word (snapshot restore).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable

from repro.sla.synth import Pla


class ConfigurationRegister:
    """Events, conditions and the state field, packed into one int."""

    def __init__(self, pla: Pla) -> None:
        self.pla = pla
        layout = self.layout = pla.layout
        chart = layout.chart
        #: the chart's event names, built once for the per-cycle checks
        self.event_names: FrozenSet[str] = frozenset(chart.events)
        self._event_mask = layout.pack(chart.events, (), ())
        self._condition_bits = layout.condition_bits
        self._offset = layout.state_offset
        self.bits: int = layout.pack(
            (), [name for name, condition in chart.conditions.items()
                 if condition.initial], chart.initial_configuration())

    def _names(self, bit_of: Dict[str, int]) -> FrozenSet[str]:
        bits = self.bits
        return frozenset(name for name, bit in bit_of.items()
                         if (bits >> bit) & 1)

    def _flip(self, bit_of: Dict[str, int], name: str, part: str) -> bool:
        if name not in bit_of:
            raise KeyError(f"unknown {part} {name!r}")
        self.bits ^= 1 << bit_of[name]
        return bool((self.bits >> bit_of[name]) & 1)

    # -- event part ---------------------------------------------------------
    @property
    def events(self) -> FrozenSet[str]:
        return self._names(self.layout.event_bits)

    def sample_events(self, external: Iterable[str],
                      internal: Iterable[str]) -> FrozenSet[str]:
        """Start of a configuration cycle: load this cycle's events and
        return them."""
        events = frozenset(external).union(internal)
        unknown = events - self.event_names
        if unknown:
            raise KeyError(f"unknown events {sorted(unknown)!r}")
        bits, bit_of = self.bits & ~self._event_mask, self.layout.event_bits
        for name in events:
            bits |= 1 << bit_of[name]
        self.bits = bits
        return events

    def reset_events(self) -> None:
        """End of cycle: "events are only available during a single system
        cycle" — the SLA resets the event part of the CR."""
        self.bits &= ~self._event_mask

    # -- condition part --------------------------------------------------------
    @property
    def conditions(self) -> FrozenSet[str]:
        return self._names(self._condition_bits)

    def condition(self, name: str) -> bool:
        """Whether condition *name* is true (False for an unknown name)."""
        bit = self._condition_bits.get(name)
        return bit is not None and (self.bits >> bit) & 1 == 1

    def condition_vector(self) -> Dict[str, bool]:
        bits = self.bits
        return {name: bool((bits >> bit) & 1)
                for name, bit in self._condition_bits.items()}

    def write_conditions(self, values: Dict[str, bool]) -> None:
        bits = self.bits
        for name, value in values.items():
            if name not in self._condition_bits:
                raise KeyError(f"unknown condition {name!r}")
            bit = 1 << self._condition_bits[name]
            bits = bits | bit if value else bits & ~bit
        self.bits = bits

    # -- state part ----------------------------------------------------------
    @property
    def state_word(self) -> int:
        """The state part alone (the CR >> the state offset)."""
        return self.bits >> self._offset

    @state_word.setter
    def state_word(self, word: int) -> None:
        self.bits = self.bits & ((1 << self._offset) - 1) | word << self._offset

    @property
    def configuration(self) -> FrozenSet[str]:
        return self.pla.decode(self.bits >> self._offset)

    @configuration.setter
    def configuration(self, names: Iterable[str]) -> None:
        self.state_word = self.layout.encoding.encode(names)

    # -- fault-injection hooks ------------------------------------------------
    def flip_event(self, name: str) -> bool:
        """Single-bit upset in the event part; returns the new presence."""
        return self._flip(self.layout.event_bits, name, "event")

    def flip_condition(self, name: str) -> bool:
        """Single-bit upset in the condition part; returns the new presence."""
        return self._flip(self._condition_bits, name, "condition")

    def corrupt_state_bit(self, bit: int) -> FrozenSet[str]:
        """Single-bit upset in the state part; returns the configuration the
        SLA now sees, which may be illegal (an OR-selector pointing at an
        unused code point) — what the guard's exclusivity checker catches."""
        self.bits ^= 1 << (self._offset + bit)
        return self.configuration

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CR(events={sorted(self.events)}, "
                f"conditions={sorted(self.conditions)}, "
                f"states={sorted(self.configuration)})")
