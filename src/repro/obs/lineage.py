"""Causal event-lineage tracking: who caused what, cycle by cycle.

The tracer (:mod:`repro.obs.tracer`) answers *what happened when*; the
:class:`LineageTracker` answers *why*: every externally injected event
gets a stable ``ev:<origin>:<seq>`` identity, and the machine records the
causal hops it takes — latched into the CR, enabling a fired SOP term,
the transition's dispatch to a TEP, the routine's raised events and port
writes, a watchdog abort and its retry — as an append-only **hop log**.
Nothing is digested on the hot path: building the queryable causal DAG
(:class:`repro.obs.causal.CausalDag`) happens at query time, the same
lazy-digest discipline the :class:`~repro.obs.flightrec.FlightRecorder`
uses.

Zero overhead when detached
---------------------------

``PscpMachine.lineage`` is ``None`` by default and every hook is a
``None`` guard.  Attached, the cost per configuration cycle is one tuple
append plus two appends per dispatched transition — enforced by the
``lineage`` leg of ``scripts/check_overhead.py`` under the same hard <5%
paired budget as the recorder and profiler legs.

Identity scheme
---------------

* ``ev:<origin>:<seq>`` — an injected event instance.  The farm stamps
  ``origin``/``seq`` from the :class:`~repro.resil.queue.WorkItem` trace
  context so the id is stable across processes, worker death and
  redispatch; stand-alone drivers get ``ev:<tracker-origin>:<n>`` from a
  local counter.  Timer-driven stimuli use origin ``timer``.
* ``latch:<cycle>:<name>`` — the event was sampled into the CR.
* ``fire:<cycle>:t<index>`` — transition *index* was dispatched.
* ``raise:<cycle>:t<index>:<name>`` — the routine raised *name*.
* ``port:<cycle>:t<index>:<addr>:<k>`` — the routine's *k*-th port
  access in that dispatch wrote ``addr``.

All ids derive from ``(origin, seq, cycle, transition index, name)``
only — no ambient randomness or wall clock — so two same-seed runs
produce byte-identical DAGs.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

#: hop tags (first element of every hop tuple)
INJECT = "inject"
DISPATCH = "dispatch"
STEP = "step"

#: how many digested hops :meth:`LineageTracker.tail` keeps for forensics
DEFAULT_TAIL = 64


class LineageTracker:
    """One machine's append-only causal hop log.

    Attach with :meth:`PscpMachine.attach_lineage`.  The machine appends
    compact tuples; :meth:`dag` digests them into a
    :class:`~repro.obs.causal.CausalDag`, :meth:`drain` ships the digest
    incrementally (the shard-farm worker does this per reply), and
    :meth:`tail` keeps the last few digested hops for forensics bundles.
    """

    __slots__ = ("origin", "hops", "_seq", "_digester", "_tail",
                 "_transitions", "_event_index_to_name", "chart")

    def __init__(self, origin: str = "m0",
                 tail_limit: int = DEFAULT_TAIL) -> None:
        self.origin = origin
        #: the hot-path hop log; cleared on every ingest
        self.hops: List[Tuple] = []
        self._seq = 0
        self._digester: Optional[_Digester] = None
        self._tail: Deque[Dict[str, Any]] = deque(maxlen=tail_limit)
        self._transitions = None
        self._event_index_to_name: Dict[int, str] = {}
        self.chart = None

    # -- wiring ------------------------------------------------------------
    def bind(self, machine) -> None:
        """Called by :meth:`PscpMachine.attach_lineage`."""
        self.chart = machine.chart
        self._transitions = machine.chart.transitions
        self._event_index_to_name = machine._event_index_to_name
        self._digester = _Digester(self._transitions,
                                   self._event_index_to_name, self._tail)

    # -- injection identities ----------------------------------------------
    def note_injection(self, name: str,
                       event_id: Optional[str] = None) -> str:
        """Declare one injected event instance before stepping the machine.

        *event_id* carries a cross-process trace context (``ev:stream:12``
        from a :class:`~repro.resil.queue.WorkItem`); when omitted a local
        ``ev:<origin>:<n>`` id is minted.  Returns the id.  Events stepped
        without a declared injection still appear in the DAG (their latch
        node is a root) — declaring simply names the source.
        """
        if event_id is None:
            event_id = f"ev:{self.origin}:{self._seq}"
            self._seq += 1
        self.hops.append((INJECT, event_id, name))
        return event_id

    # -- machine hooks (the hot path) --------------------------------------
    def on_dispatch(self, cycle: int, index: int, completed: bool,
                    events_raised, port_accesses) -> None:
        """One TAT dispatch retired (or aborted).  *events_raised* is the
        executor's per-dispatch set (rebound, never mutated, so storing
        the reference is safe); *port_accesses* is the list of port bus
        accesses this dispatch made (handed over, never mutated again), or
        the shared ``()`` when it made none."""
        self.hops.append((DISPATCH, cycle, index, completed,
                          events_raised, port_accesses))

    def on_step(self, cycle: int, step) -> None:
        """The configuration cycle completed; *step* is its MachineStep.

        Only the three fields the digester reads are kept, so the step
        (and its dispatch plan) is not held until the next digest.  A
        quiescent cycle keeps ``()`` for all three: a tuple of untracked
        items drops out of the garbage collector's lists, so the most
        common hop costs the collector nothing while it waits.
        """
        sampled = step.events_sampled
        raised = step.events_raised
        fired = step.fired
        if sampled or raised or fired:
            self.hops.append((STEP, cycle, sampled, raised, fired))
        else:
            self.hops.append((STEP, cycle, (), (), ()))

    # -- digestion ---------------------------------------------------------
    def _ingest(self) -> None:
        if not self.hops:
            return
        hops, self.hops = self.hops, []
        self._require_digester().feed(hops)

    def _require_digester(self) -> "_Digester":
        if self._digester is None:
            # unbound tracker (tests feeding hops by hand): digest with
            # no chart knowledge — enable edges simply cannot be derived
            self._digester = _Digester(None, self._event_index_to_name,
                                       self._tail)
        return self._digester

    def dag(self):
        """The full causal DAG digested so far (a
        :class:`~repro.obs.causal.CausalDag`)."""
        self._ingest()
        return self._require_digester().dag

    def drain(self) -> Dict[str, Any]:
        """Digest pending hops and return only the *new* nodes and edges
        since the previous drain — the shard-farm wire payload."""
        digester = self._require_digester()
        nodes_before = len(digester.dag.nodes)
        edges_before = len(digester.dag.edges)
        self._ingest()
        return digester.dag.slice_json(nodes_before, edges_before)

    def tail(self, k: int = 16) -> List[Dict[str, Any]]:
        """The last *k* digested hops, JSON-ready (forensics bundles)."""
        self._ingest()
        items = list(self._tail)
        return items[-k:] if k < len(items) else items


# ---------------------------------------------------------------------------
# the digester: hop log -> causal DAG (query time, never the hot path)
# ---------------------------------------------------------------------------

class _Digester:
    """Replays a hop log into a CausalDag, carrying cross-cycle state
    (pending injections, one-cycle raised events, open watchdog aborts)
    so incremental drains stitch seamlessly."""

    def __init__(self, transitions, event_index_to_name: Dict[int, str],
                 tail: Deque[Dict[str, Any]]) -> None:
        from repro.obs.causal import CausalDag

        self.dag = CausalDag()
        self._transitions = transitions
        self._names = event_index_to_name
        self._tail = tail
        #: event name -> injected ids awaiting their latch
        self._pending_inject: Dict[str, List[str]] = {}
        #: event name -> raise node ids from the previous cycle
        self._pending_raise: Dict[str, List[str]] = {}
        #: transition index -> fire node id of the open (aborted) dispatch
        self._open_abort: Dict[int, str] = {}
        #: dispatch hops of the cycle whose step hop has not arrived yet
        self._cycle_dispatches: List[Tuple] = []

    def feed(self, hops: List[Tuple]) -> None:
        for hop in hops:
            tag = hop[0]
            if tag == DISPATCH:
                self._cycle_dispatches.append(hop)
            elif tag == STEP:
                self._feed_step(*hop[1:])
            else:  # INJECT
                _, event_id, name = hop
                self.dag.add_node(event_id, "inject", event=name)
                self._pending_inject.setdefault(name, []).append(event_id)
                self._tail.append({"kind": INJECT, "id": event_id,
                                   "event": name})

    def _feed_step(self, cycle: int, events_sampled, events_raised,
                   fired) -> None:
        dag = self.dag
        sampled = sorted(events_sampled)
        # latch nodes, fed by pending injections and last cycle's raises
        latch_of: Dict[str, str] = {}
        for name in sampled:
            latch_id = f"latch:{cycle}:{name}"
            latch_of[name] = latch_id
            dag.add_node(latch_id, "latch", cycle=cycle, event=name)
            for source in self._pending_inject.pop(name, ()):
                dag.add_edge(source, latch_id, "inject")
            for source in self._pending_raise.get(name, ()):
                dag.add_edge(source, latch_id, "propagate")
        # raised events live exactly one cycle (CR resets the event part)
        self._pending_raise = {}

        consumed: set = set()
        raised_forward: Dict[str, List[str]] = {}
        dispatch_digests: List[Dict[str, Any]] = []
        for _, dcycle, index, completed, events_raised, accesses \
                in self._cycle_dispatches:
            fire_id = f"fire:{dcycle}:t{index}"
            dag.add_node(fire_id, "fire", cycle=dcycle, transition=index,
                         completed=completed)
            transition = (self._transitions[index]
                          if self._transitions is not None else None)
            for name in sampled:
                if transition is not None and transition.consumes(name):
                    dag.add_edge(latch_of[name], fire_id, "enable")
                    consumed.add(name)
            previous = self._open_abort.pop(index, None)
            if previous is not None:
                dag.add_edge(previous, fire_id, "retry")
            if not completed:
                self._open_abort[index] = fire_id
            raised_names: List[str] = []
            if completed:
                for event_index in sorted(events_raised):
                    name = self._names.get(event_index,
                                           f"event{event_index}")
                    raise_id = f"raise:{dcycle}:t{index}:{name}"
                    dag.add_node(raise_id, "raise", cycle=dcycle,
                                 transition=index, event=name)
                    dag.add_edge(fire_id, raise_id, "raise")
                    raised_forward.setdefault(name, []).append(raise_id)
                    raised_names.append(name)
            writes = 0
            for k, access in enumerate(accesses):
                kind, addr, value = access
                if kind != "w":
                    continue
                port_id = f"port:{dcycle}:t{index}:{addr}:{k}"
                dag.add_node(port_id, "port", cycle=dcycle,
                             transition=index, addr=addr, value=value)
                dag.add_edge(fire_id, port_id, "write")
                writes += 1
            dispatch_digests.append({
                "kind": DISPATCH, "cycle": dcycle, "transition": index,
                "completed": completed, "raised": raised_names,
                "writes": writes})
        self._cycle_dispatches = []
        self._pending_raise = raised_forward

        # terminal attribution on latches: consumed by a fired transition
        # or dropped when the CR resets at end of cycle
        for name in sampled:
            dag.nodes[latch_of[name]]["outcome"] = (
                "consumed" if name in consumed else "dropped")
        self._tail.extend(dispatch_digests)
        self._tail.append({"kind": STEP, "cycle": cycle,
                           "sampled": sampled,
                           "raised": sorted(events_raised),
                           "fired": [t.index for t in fired]})
