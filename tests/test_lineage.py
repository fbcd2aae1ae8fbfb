"""Causal event lineage: machine-level provenance, the queryable DAG,
deadline critical paths, and cross-process farm stitching.

The load-bearing properties:

* **zero perturbation** — a machine with a lineage tracker attached
  produces the byte-identical step sequence of an uninstrumented one
  (the step-stream analogue of the <5% wall-clock budget the overhead
  guard enforces);
* **complete chains** — an injected event's lineage reaches every latch,
  transition firing, raised event, propagated latch and port write it
  caused, with typed edges;
* **abort semantics** — an aborted dispatch's raises are quarantined
  (mirroring the machine's transactional abort) and its re-execution is
  linked with a ``retry`` edge;
* **determinism** — same stimulus, byte-identical DAG dumps and
  ``render_chain`` output;
* **conservation** — every accepted farm item's lineage terminates in
  exactly one of processed/shed/rejected.
"""

import gc
import json
import weakref
from types import SimpleNamespace

import pytest

from repro.flow import build_system, select_initial_architecture
from repro.obs import (
    CausalDag,
    FarmLineage,
    LineageTracker,
    dag_flow_events,
    load_dag,
    load_forensics_bundle,
    render_chain,
    render_forensics,
)
from repro.obs.lineage import DISPATCH
from repro.pscp.trace import DeadlineMonitor
from repro.statechart import ChartBuilder, PortKind
from repro.workloads.generators import parallel_servers, pipeline_chart


def step_fingerprint(step):
    return (tuple(t.index for t in step.fired), step.configuration,
            step.cycle_length, step.start_time, step.end_time,
            step.events_sampled, step.events_raised,
            step.faults, step.recoveries)


@pytest.fixture(scope="module")
def servers_system():
    chart, routines = parallel_servers(2)
    arch = select_initial_architecture(chart, routines)
    if arch.n_teps < 2:
        arch = arch.with_(n_teps=2)
    return build_system(chart, routines, arch)


@pytest.fixture(scope="module")
def pipeline_system():
    chart, routines = pipeline_chart(3)
    arch = select_initial_architecture(chart, routines)
    return build_system(chart, routines, arch)


@pytest.fixture(scope="module")
def echo_system():
    b = ChartBuilder("echo")
    b.event("GO").event("IDLE")
    b.port("In", PortKind.DATA, width=8, address=0x700)
    b.port("Out", PortKind.DATA, width=8, address=0x701)
    with b.or_state("Main", default="S"):
        s = b.basic("S")
        s.transition("S", label="GO/Echo()")
        s.transition("S", label="IDLE/Count()")
    chart = b.build()
    routines = """
int:8 n;
void Echo() { n = n + 1; WritePort(Out, ReadPort(In) + n); }
void Count() { n = n + 1; }
"""
    arch = select_initial_architecture(chart, routines)
    return build_system(chart, routines, arch)


def drive(system, stimulus, lineage=None):
    machine = system.make_machine()
    if lineage is not None:
        machine.attach_lineage(lineage)
    steps = []
    for events in stimulus:
        if lineage is not None:
            for name in events:
                lineage.note_injection(name)
        steps.append(machine.step(events))
    return machine, steps


# ---------------------------------------------------------------------------
# machine-level lineage
# ---------------------------------------------------------------------------

class TestMachineLineage:
    def test_lineage_does_not_perturb_the_run(self, servers_system):
        stimulus = [["START"], ["REQ0"], ["REQ1"], ["REQ0"], ["REQ1"]] * 3
        _, plain = drive(servers_system, stimulus)
        _, observed = drive(servers_system, stimulus, LineageTracker())
        assert ([step_fingerprint(s) for s in plain]
                == [step_fingerprint(s) for s in observed])

    def test_injection_to_consumption_chain(self, servers_system):
        lineage = LineageTracker(origin="m0")
        machine = servers_system.make_machine()
        machine.attach_lineage(lineage)
        machine.step(["START"])
        event_id = lineage.note_injection("REQ0")
        machine.step(["REQ0"])
        dag = lineage.dag()
        assert dag.nodes[event_id]["kind"] == "inject"
        descendants = dag.descendants(event_id)
        latch = [n for n in descendants if n.startswith("latch:")]
        fires = [n for n in descendants if n.startswith("fire:")]
        assert latch and fires
        assert dag.nodes[latch[0]]["outcome"] == "consumed"
        kinds = {kind for _s, _d, kind in dag.edges}
        assert {"inject", "enable"} <= kinds

    def test_raise_propagates_to_next_cycle(self, pipeline_system):
        lineage = LineageTracker()
        machine = pipeline_system.make_machine()
        machine.attach_lineage(lineage)
        event_id = lineage.note_injection("FEED")
        machine.step(["FEED"])
        for _ in range(4):
            machine.step([])
        dag = lineage.dag()
        descendants = dag.descendants(event_id)
        raises = [n for n in descendants if n.startswith("raise:")]
        assert raises, "FEED never raised the next stage's event"
        # the raised event was latched the following cycle via a
        # propagate edge, and its latch enabled another firing
        propagate = [(s, d) for s, d, k in dag.edges if k == "propagate"]
        assert propagate
        assert all(s.startswith("raise:") and d.startswith("latch:")
                   for s, d in propagate)

    def test_undeclared_events_still_get_latch_nodes(self, servers_system):
        lineage = LineageTracker()
        machine = servers_system.make_machine()
        machine.attach_lineage(lineage)
        machine.step(["START"])  # no note_injection
        dag = lineage.dag()
        latches = [n for n in dag.nodes if n.startswith("latch:")]
        assert latches
        assert dag.parents(latches[0]) == []  # a root, just unnamed

    def test_same_stimulus_dags_are_byte_identical(self, servers_system):
        stimulus = [["START"], ["REQ0"], ["REQ1"]] * 4

        def once():
            lineage = LineageTracker()
            drive(servers_system, stimulus, lineage)
            return lineage.dag().dumps()

        assert once() == once()

    def test_dispatch_port_writes_become_nodes(self, echo_system):
        lineage = LineageTracker()
        machine = echo_system.make_machine()
        machine.attach_lineage(lineage)
        machine.ports.write(0x700, 4)  # outside any dispatch: no hop
        machine.step(["GO"])
        machine.step(["IDLE"])
        port_free = [hop[5] for hop in lineage.hops
                     if hop[0] == DISPATCH and hop[2] == 1]
        assert port_free == [()]
        machine.ports.write(0x700, 10)
        machine.step(["GO"])
        dag = lineage.dag()
        ports = sorted(n for n in dag.nodes if n.startswith("port:"))
        assert ports == [f"port:0:t0:{0x701}:1", f"port:2:t0:{0x701}:1"]
        assert [dag.nodes[p]["value"] for p in ports] == [5, 13]
        machine.attach_lineage(None)
        assert machine.ports.access_log is None

    def test_step_hops_do_not_hold_the_step(self, servers_system):
        lineage = LineageTracker()
        machine = servers_system.make_machine()
        machine.attach_lineage(lineage)
        first = weakref.ref(machine.step(["START"]))
        machine.step([])
        gc.collect()
        assert first() is None  # the hop log kept only the digested fields
        quiescent = lineage.hops[-1]
        assert quiescent[0] == "step" and quiescent[2:] == ((), (), ())
        assert "latch:0:START" in lineage.dag().nodes

    def test_detached_machine_carries_no_tracker(self, servers_system):
        machine = servers_system.make_machine()
        assert machine.lineage is None
        machine.step(["START"])  # must not touch any lineage state


# ---------------------------------------------------------------------------
# the digester: aborts, retries, port writes (hand-fed hops)
# ---------------------------------------------------------------------------

def fake_step(sampled=(), raised=(), fired=()):
    return SimpleNamespace(events_sampled=tuple(sampled),
                           events_raised=tuple(raised),
                           fired=tuple(fired))


class TestDigester:
    def test_aborted_raises_are_quarantined_and_retry_linked(self):
        lineage = LineageTracker()
        # cycle 3: t0 aborts having raised event 1 — quarantined
        lineage.on_dispatch(3, 0, False, {1}, [])
        lineage.on_step(3, fake_step(sampled=["GO"]))
        # cycle 4: t0 re-executes and completes
        lineage.on_dispatch(4, 0, True, set(), [])
        lineage.on_step(4, fake_step(sampled=["GO"]))
        dag = lineage.dag()
        assert not any(n.startswith("raise:") for n in dag.nodes), \
            "aborted dispatch's raise leaked into the DAG"
        assert dag.nodes["fire:3:t0"]["completed"] is False
        assert ("fire:3:t0", "fire:4:t0", "retry") in dag.edges

    def test_port_writes_become_nodes_reads_do_not(self):
        lineage = LineageTracker()
        lineage.on_dispatch(5, 2, True, set(),
                            [("r", 464, 9), ("w", 464, 7), ("w", 465, 1)])
        lineage.on_step(5, fake_step())
        dag = lineage.dag()
        ports = sorted(n for n in dag.nodes if n.startswith("port:"))
        assert ports == ["port:5:t2:464:1", "port:5:t2:465:2"]
        assert dag.nodes["port:5:t2:464:1"]["value"] == 7
        assert all(("fire:5:t2", port, "write") in dag.edges
                   for port in ports)

    def test_tail_is_bounded_and_chronological(self):
        lineage = LineageTracker(tail_limit=4)
        for cycle in range(6):
            lineage.note_injection("GO")
            lineage.on_dispatch(cycle, 0, True, set(), [])
            lineage.on_step(cycle, fake_step(sampled=["GO"]))
        tail = lineage.tail(16)
        assert len(tail) == 4
        cycles = [hop["cycle"] for hop in tail if "cycle" in hop]
        assert cycles == sorted(cycles)
        assert tail[-1]["kind"] == "step"

    def test_drain_slices_union_to_the_full_dag(self, servers_system):
        stimulus = [["START"], ["REQ0"], ["REQ1"], ["REQ0"]]
        whole = LineageTracker()
        drive(servers_system, stimulus, whole)

        incremental = LineageTracker()
        machine = servers_system.make_machine()
        machine.attach_lineage(incremental)
        merged = CausalDag()
        for events in stimulus:
            for name in events:
                incremental.note_injection(name)
            machine.step(events)
            merged.merge_json(incremental.drain())
        assert merged.to_json() == whole.dag().to_json()
        assert incremental.drain() == {"nodes": [], "edges": []}


# ---------------------------------------------------------------------------
# chain rendering
# ---------------------------------------------------------------------------

class TestRenderChain:
    def test_chain_is_deterministic_and_complete(self, pipeline_system):
        def once():
            lineage = LineageTracker()
            machine = pipeline_system.make_machine()
            machine.attach_lineage(lineage)
            event_id = lineage.note_injection("FEED")
            machine.step(["FEED"])
            for _ in range(4):
                machine.step([])
            return render_chain(lineage.dag(), event_id)

        first, second = once(), once()
        assert first == second
        assert first.startswith("why ev:")
        assert "=>" in first and "raise:" in first

    def test_unknown_node_raises_with_close_matches(self):
        dag = CausalDag()
        dag.add_node("latch:3:GO", "latch", cycle=3, event="GO")
        with pytest.raises(KeyError, match="close matches.*latch:3:GO"):
            render_chain(dag, "latch:3")
        with pytest.raises(KeyError):
            render_chain(dag, "no-such-node")


# ---------------------------------------------------------------------------
# deadline critical paths: DeadlineMonitor.explain
# ---------------------------------------------------------------------------

def make_monitor(period=100):
    chart = SimpleNamespace(constrained_events=lambda: [
        SimpleNamespace(name="GO", period=period)])
    return DeadlineMonitor(chart)


def consuming_step(event, start, length, recoveries=()):
    transition = SimpleNamespace(consumes=lambda name: name == event)
    return SimpleNamespace(events_sampled=(event,),
                           fired=(transition,),
                           start_time=start, end_time=start + length,
                           cycle_length=length, recoveries=recoveries)


def idle_step(start, length, recoveries=()):
    return SimpleNamespace(events_sampled=(), fired=(),
                           start_time=start, end_time=start + length,
                           cycle_length=length, recoveries=recoveries)


class TestExplain:
    def test_segments_split_queued_retry_dispatch(self):
        monitor = make_monitor(period=100)
        monitor.arrival("GO", 0)
        # 2 recovery cycles (watchdog retry), then the consuming cycle
        monitor.observe(idle_step(0, 40, recoveries=(
            SimpleNamespace(kind="watchdog-abort"),)))
        monitor.observe(idle_step(40, 30))
        monitor.observe(consuming_step("GO", 70, 60))
        explanation = monitor.explain("GO")
        segments = {s["kind"]: s["cycles"]
                    for s in explanation["segments"]}
        assert segments == {"queued": 30, "retry": 40, "dispatch": 60}
        assert explanation["dominant"] == "dispatch"
        assert explanation["outcome"] == "late"
        assert explanation["miss"] is True
        assert explanation["latency"] == 130
        assert explanation["deadline"] == 100

    def test_restart_cycles_attributed_separately(self):
        monitor = make_monitor(period=500)
        monitor.arrival("GO", 0)
        monitor.observe(idle_step(0, 80, recoveries=(
            SimpleNamespace(kind="tep-failover"),)))
        monitor.observe(consuming_step("GO", 80, 20))
        explanation = monitor.explain("GO")
        segments = {s["kind"]: s["cycles"]
                    for s in explanation["segments"]}
        assert segments == {"queued": 0, "restart": 80, "dispatch": 20}
        assert explanation["dominant"] == "restart"
        assert explanation["outcome"] == "met"
        assert explanation["miss"] is False

    def test_dropped_arrival_explains_to_its_resolution(self):
        monitor = make_monitor(period=50)
        monitor.arrival("GO", 0)
        # sampled into a cycle that fired nothing: dropped
        step = idle_step(10, 20)
        step.events_sampled = ("GO",)
        monitor.observe(step)
        explanation = monitor.explain("GO")
        assert explanation["outcome"] == "dropped"
        assert explanation["miss"] is True
        assert explanation["latency"] is None
        segments = {s["kind"]: s["cycles"]
                    for s in explanation["segments"]}
        assert segments == {"queued": 30}

    def test_open_arrival_past_deadline_is_expired(self):
        monitor = make_monitor(period=10)
        monitor.arrival("GO", 0)
        monitor.observe(idle_step(0, 40))
        explanation = monitor.explain("GO")
        assert explanation["outcome"] == "expired-open"
        assert explanation["miss"] is True

    def test_picks_the_worst_miss_and_accepts_records(self):
        monitor = make_monitor(period=30)
        monitor.arrival("GO", 0)
        monitor.observe(consuming_step("GO", 0, 10))     # met, latency 10
        monitor.arrival("GO", 100)
        monitor.observe(consuming_step("GO", 100, 80))   # late, latency 80
        explanation = monitor.explain("GO")
        assert explanation["arrival_time"] == 100
        assert explanation["latency"] == 80
        # an explicit EventRecord bypasses the picker
        record = monitor.records["GO"][0]
        assert monitor.explain(record)["outcome"] == "met"
        with pytest.raises(KeyError):
            monitor.explain("NEVER_SEEN")

    def test_ledger_timeline_annotations_are_filtered(self):
        monitor = make_monitor()
        monitor.arrival("GO", 0)
        monitor.observe(consuming_step("GO", 0, 10))
        timeline = [
            {"tick": 3, "kind": "shed", "worker": "shard0"},
            {"tick": 4, "kind": "sample"},
            {"tick": 5, "kind": "process-kill", "worker": "shard1"},
        ]
        explanation = monitor.explain("GO", ledger_timeline=timeline)
        kinds = [a["kind"] for a in explanation["annotations"]]
        assert kinds == ["shed", "process-kill"]


# ---------------------------------------------------------------------------
# farm-wide lineage (supervisor side)
# ---------------------------------------------------------------------------

class TestFarmLineage:
    def test_item_lifecycle_conserves(self):
        lineage = FarmLineage()
        doc = {"seq": 0, "origin": "stream", "events": ["GO"]}
        lineage.on_submit(1, doc)
        lineage.on_dispatch(1, "shard0", doc)
        lineage.on_accept(1, 0)
        lineage.on_processed(2, 0)
        assert lineage.conservation() == []
        chain = render_chain(lineage.dag, "ev:stream:0")
        assert "processed:0" in chain

    def test_double_terminal_is_a_violation(self):
        lineage = FarmLineage()
        doc = {"seq": 0, "origin": "stream", "events": []}
        lineage.on_submit(1, doc)
        lineage.on_accept(1, 0)
        lineage.on_processed(2, 0)
        lineage.on_shed(3, 0, "overload")
        problems = lineage.conservation()
        assert len(problems) == 1 and "2 lineage terminal" in problems[0]

    def test_accepted_without_terminal_is_a_violation(self):
        lineage = FarmLineage()
        lineage.on_submit(1, {"seq": 4, "origin": "stream", "events": []})
        lineage.on_accept(1, 4)
        assert any("accepted item 4" in p for p in lineage.conservation())

    def test_death_feeds_redispatch_and_respawn(self):
        lineage = FarmLineage()
        doc = {"seq": 7, "origin": "stream", "events": ["GO"]}
        lineage.on_submit(1, doc)
        lineage.on_dispatch(1, "shard0", doc)
        lineage.on_accept(1, 7)
        lineage.on_worker_lost(3, "shard0", "SIGKILL")
        lineage.on_dispatch(4, "shard0", doc, redispatch=True)
        lineage.on_respawn(4, "shard0")
        lineage.on_processed(5, 7)
        assert lineage.conservation() == []
        edges = set(lineage.dag.edges)
        assert ("death:3:shard0", "disp:7:1", "redispatch") in edges
        assert ("disp:7:0", "disp:7:1", "redispatch") in edges
        assert ("death:3:shard0", "respawn:4:shard0", "respawn") in edges

    def test_worker_digests_merge_namespaced_ev_ids_stay_global(self):
        lineage = FarmLineage()
        doc = {"seq": 0, "origin": "stream", "events": ["GO"]}
        lineage.on_submit(1, doc)
        lineage.on_dispatch(1, "shard0", doc)
        payload = {
            "nodes": [{"id": "ev:stream:0", "kind": "inject",
                       "event": "GO"},
                      {"id": "latch:2:GO", "kind": "latch", "cycle": 2,
                       "event": "GO"}],
            "edges": [{"src": "ev:stream:0", "dst": "latch:2:GO",
                       "kind": "inject"}],
        }
        lineage.merge_worker("shard0", 1, payload)
        assert "shard0.g1/latch:2:GO" in lineage.dag.nodes
        assert lineage.dag.nodes["shard0.g1/latch:2:GO"]["shard"] \
            == "shard0"
        # the global event id stitched, unprefixed
        assert ("ev:stream:0", "shard0.g1/latch:2:GO", "inject") \
            in lineage.dag.edges

    def test_to_json_round_trips_and_is_canonical(self):
        lineage = FarmLineage()
        doc = {"seq": 0, "origin": "stream", "events": ["GO"]}
        lineage.on_submit(1, doc)
        lineage.on_accept(1, 0)
        lineage.on_shed(2, 0, "overload")
        document = json.loads(lineage.dumps())
        assert document["conservation_violations"] == []
        assert document["terminals"] == {"0": ["shed:0"]}
        reloaded = load_dag(document)
        assert reloaded.to_json() == lineage.dag.to_json()

    def test_flow_events_bind_ids_and_pids(self):
        lineage = FarmLineage()
        doc = {"seq": 0, "origin": "stream", "events": ["GO"]}
        lineage.on_submit(1, doc)
        lineage.on_dispatch(2, "shard0", doc)
        flows = dag_flow_events(lineage.dag, pids={"shard0": 2})
        assert [e["ph"] for e in flows] == ["s", "f"]
        start, finish = flows
        assert start["id"] == finish["id"] == "ev:stream:0->disp:0:0"
        assert start["pid"] == 1      # submit node: supervisor track
        assert finish["pid"] == 2     # dispatch node: shard0's track
        assert finish["bp"] == "e"


# ---------------------------------------------------------------------------
# forensics v2: lineage tails and v1 load-compat
# ---------------------------------------------------------------------------

class TestForensicsLineage:
    def test_bundle_carries_the_lineage_tail(self, servers_system):
        from repro.obs import FlightRecorder

        machine = servers_system.make_machine()
        machine.attach_recorder(FlightRecorder(capacity=8))
        machine.attach_lineage(LineageTracker())
        machine.lineage.note_injection("START")
        machine.step(["START"])
        bundle = machine.recorder.forensics_bundle({"kind": "test"})
        assert bundle["version"] == 2
        assert bundle["lineage"], "v2 bundle missing the lineage tail"
        kinds = [hop["kind"] for hop in bundle["lineage"]]
        assert kinds[0] == "inject" and kinds[-1] == "step"
        rendered = render_forensics(bundle)
        assert "Causal lineage tail" in rendered

    def test_v1_bundle_still_loads(self, tmp_path):
        v1 = {"version": 1, "worker": "worker0",
              "cause": {"kind": "escalation"}, "ring": [],
              "recorded": 0, "dropped": 0, "capacity": 8,
              "last_checkpoint": None, "last_escalation": None,
              "metrics_delta": None, "machine": None}
        path = tmp_path / "old.json"
        path.write_text(json.dumps(v1))
        bundle = load_forensics_bundle(str(path))
        assert bundle["version"] == 1
        assert bundle["lineage"] is None  # normalized, never KeyErrors
        render_forensics(bundle)  # and renders without the tail section

    def test_unsupported_version_is_refused(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(ValueError, match="version"):
            load_forensics_bundle(str(path))
