"""The Configuration Register at run time.

"The state information, together with the encoded events and conditions,
forms the configuration register (CR) of the chart.  Its content describes
the current state of an application."

The runtime object keeps the symbolic view (event/condition/state sets) and
produces the packed bit vector for the SLA on demand; both views are kept
consistent through the :class:`~repro.sla.encode.CrLayout`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Set

from repro.sla.encode import CrLayout


class ConfigurationRegister:
    """Events, conditions and the state field, with CR-bit packing."""

    def __init__(self, layout: CrLayout) -> None:
        self.layout = layout
        chart = layout.chart
        #: the chart's event names, built once for the per-cycle checks
        self.event_names: FrozenSet[str] = frozenset(chart.events)
        self.events: Set[str] = set()
        self.conditions: Set[str] = {
            name for name, condition in chart.conditions.items()
            if condition.initial}
        self.configuration: FrozenSet[str] = chart.initial_configuration()

    # -- event part ---------------------------------------------------------
    def sample_events(self, external: Iterable[str],
                      internal: Iterable[str]) -> None:
        """Start of a configuration cycle: load this cycle's events."""
        events = set(external)
        events.update(internal)
        unknown = events - self.event_names
        if unknown:
            raise KeyError(f"unknown events {sorted(unknown)!r}")
        self.events = events

    def reset_events(self) -> None:
        """End of cycle: "events are only available during a single system
        cycle" — the SLA resets the event part of the CR."""
        self.events = set()

    # -- condition part --------------------------------------------------------
    def condition_vector(self) -> Dict[str, bool]:
        return {name: name in self.conditions
                for name in self.layout.chart.conditions}

    def write_conditions(self, values: Dict[str, bool]) -> None:
        for name, value in values.items():
            if name not in self.layout.chart.conditions:
                raise KeyError(f"unknown condition {name!r}")
            if value:
                self.conditions.add(name)
            else:
                self.conditions.discard(name)

    # -- fault-injection hooks ------------------------------------------------
    def flip_event(self, name: str) -> bool:
        """Single-bit upset in the event part; returns the new presence."""
        if name not in self.layout.chart.events:
            raise KeyError(f"unknown event {name!r}")
        if name in self.events:
            self.events.discard(name)
            return False
        self.events.add(name)
        return True

    def flip_condition(self, name: str) -> bool:
        """Single-bit upset in the condition part; returns the new presence."""
        if name not in self.layout.chart.conditions:
            raise KeyError(f"unknown condition {name!r}")
        if name in self.conditions:
            self.conditions.discard(name)
            return False
        self.conditions.add(name)
        return True

    def corrupt_state_bit(self, bit: int) -> FrozenSet[str]:
        """Single-bit upset in the state part.

        Re-decodes the corrupted state word, so the resulting configuration
        may be illegal (an OR-selector pointing at an unused code point) —
        exactly what the guard's exclusivity checker exists to catch.
        Returns the new configuration."""
        encoding = self.layout.encoding
        bits = encoding.encode(self.configuration) ^ (1 << bit)
        self.configuration = frozenset(encoding.active_states(bits))
        return self.configuration

    # -- state part ----------------------------------------------------------
    def update_states(self, exited: Iterable[str],
                      entered: Iterable[str]) -> None:
        configuration = set(self.configuration)
        configuration -= set(exited)
        configuration |= set(entered)
        self.configuration = frozenset(configuration)

    # -- packed view -----------------------------------------------------------
    @property
    def bits(self) -> int:
        return self.layout.pack(self.events, self.conditions,
                                self.configuration)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CR(events={sorted(self.events)}, "
                f"conditions={sorted(self.conditions)}, "
                f"states={sorted(self.configuration)})")
