"""The external port architecture.

"In the final implementation, a port is represented by an address" (section
2).  The :class:`PortBus` maps port addresses to handlers so the environment
(stepper motors, a central controller, test fixtures) can sit behind the
data ports, while events and conditions flow through the CR.

Port addresses come from the chart's declarations
(:meth:`repro.isa.codegen.NameMaps.from_chart` assigns them from 0x700
upward when unspecified, echoing Fig. 2b's 0700/0712/0717).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

ReadHandler = Callable[[], int]
WriteHandler = Callable[[int], None]


class PortError(Exception):
    """Raised for unmapped port accesses in strict mode."""


class PortBus:
    """Address-mapped data ports with optional handlers.

    Unmapped ports behave as latches (read back the last written value, 0
    initially) unless ``strict`` is set, in which case unmapped accesses
    raise — useful to catch address-map bugs in tests.
    """

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self._readers: Dict[int, ReadHandler] = {}
        self._writers: Dict[int, WriteHandler] = {}
        self._latches: Dict[int, int] = {}
        #: ``(kind, address, value)`` accesses; ``None`` (nothing logged)
        #: unless a lineage tracker is attached to the machine, which then
        #: takes the list over after every dispatch
        self.access_log: Optional[List[Tuple[str, int, int]]] = None
        #: fault injection: ``None`` keeps reads on the fault-free path
        self.injector = None

    def map_read(self, address: int, handler: ReadHandler) -> None:
        self._readers[address] = handler

    def map_write(self, address: int, handler: WriteHandler) -> None:
        self._writers[address] = handler

    def map_latch(self, address: int, initial: int = 0) -> None:
        self._latches[address] = initial

    def read(self, address: int) -> int:
        if address in self._readers:
            value = self._readers[address]()
        elif address in self._latches or not self.strict:
            value = self._latches.get(address, 0)
        else:
            raise PortError(f"read from unmapped port 0x{address:x}")
        if self.injector is not None:
            value = self.injector.on_port_read(address, value)
        if self.access_log is not None:
            self.access_log.append(("r", address, value))
        return value

    def write(self, address: int, value: int) -> None:
        if self.access_log is not None:
            self.access_log.append(("w", address, value))
        if address in self._writers:
            self._writers[address](value)
            return
        if address in self._latches or not self.strict:
            self._latches[address] = value
            return
        raise PortError(f"write to unmapped port 0x{address:x}")

    def latch_value(self, address: int) -> int:
        return self._latches.get(address, 0)
