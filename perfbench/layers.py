"""Where the traced run puts its spans, and what each layer metric means.

``BOUNDARIES`` names the public call wrapped for each span; ``METRICS``
lists every per-layer metric with the end-to-end metric it should move,
on which workload, and where no change is predicted.  ``run.py --trace 1``
prints that mapping next to every value.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, NamedTuple, Optional

from perfbench.tracing import Tracer


class Boundary(NamedTuple):
    span: str
    #: ``module:function`` or ``module:Class.method``
    target: str
    count_only: bool = False


BOUNDARIES = (
    Boundary("statechart.parse", "repro.statechart.parser:parse_chart"),
    Boundary("statechart.select",
             "repro.statechart.semantics:select_transitions", True),
    Boundary("statechart.ancestors", "repro.statechart.model:Chart.ancestors",
             True),
    Boundary("action.prepare", "repro.isa.codegen:prepare_program"),
    Boundary("isa.codegen", "repro.isa.codegen:CodeGenerator.compile"),
    Boundary("isa.cycle_cost", "repro.isa.microcode:cycle_cost"),
    Boundary("isa.wcet", "repro.isa.cost:routine_wcets"),
    Boundary("sla.synth", "repro.sla.synth:synthesize"),
    Boundary("sla.enabled", "repro.sla.synth:Pla.enabled"),
    Boundary("sla.pack", "repro.sla.encode:CrLayout.pack"),
    Boundary("flow.build", "repro.flow.build:build_system"),
    Boundary("flow.validate", "repro.flow.timing:TimingValidator.validate"),
    Boundary("flow.validate",
             "repro.flow.timing:TimingValidator.critical_path"),
    Boundary("hw.area", "repro.hw.area:estimate_area"),
    Boundary("pscp.step", "repro.pscp.machine:PscpMachine.step"),
    Boundary("pscp.tep_run", "repro.pscp.tep:Tep.run"),
    Boundary("workloads.env",
             "repro.workloads.environment:SmdClosedLoop.run"),
    Boundary("analysis.lint", "repro.analysis.runner:lint_system"),
    Boundary("analysis.bmc.explore",
             "repro.analysis.bmc.explorer:Explorer.explore"),
    Boundary("analysis.bmc.successors",
             "repro.analysis.bmc.explorer:Explorer.successors", True),
    Boundary("analysis.bmc.replay",
             "repro.analysis.bmc.witness:replay_witness"),
    Boundary("fault.guard_bind", "repro.fault.guard:MachineGuard.bind"),
    Boundary("resil.start", "repro.resil.shardfarm:ShardSupervisor.start"),
    Boundary("resil.send", "repro.resil.transport:Channel.send"),
    Boundary("resil.recv_wait", "repro.resil.transport:Channel.recv"),
    Boundary("resil.snapshot", "repro.resil.snapshot:snapshot_machine"),
    Boundary("resil.worker_advance",
             "repro.resil.supervisor:MachineWorker.advance"),
)


def install(tracer: Tracer,
            hooks: Optional[Dict[str, Callable]] = None) -> None:
    """Wrap every boundary; ``hooks[span](args, result)`` runs after the
    call returns (span boundaries only)."""
    hooks = hooks or {}
    for boundary in BOUNDARIES:
        module_name, _, path = boundary.target.partition(":")
        owner = importlib.import_module(module_name)
        if "." in path:
            class_name, attr = path.split(".")
            tracer.wrap_method(getattr(owner, class_name), attr,
                               boundary.span,
                               count_only=boundary.count_only,
                               hook=hooks.get(boundary.span))
        else:
            tracer.wrap_function(getattr(owner, path), boundary.span,
                                 count_only=boundary.count_only,
                                 hook=hooks.get(boundary.span))


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: the end-to-end metric (on a workload) this one should move
    moves: str
    #: where no change is predicted
    flat: str


_L, _H = "lower", "higher"
SMD, ELEV, FLOW, FARM = "smd-loop", "elevator-ride", "design-flow", \
    "farm-serve"

METRICS: List[Metric] = [
    Metric("statechart.parse_ms", "ms", _L, f"setup_s on all", "-"),
    Metric("statechart.select_calls", "count", _L,
           f"rep_s on {FLOW}", f"setup_s on {FARM}"),
    Metric("statechart.ancestors_calls", "count", _L,
           f"rep_s on {FLOW}; rep_s on {SMD} (exit/entry sets)",
           f"setup_s on {FARM}"),
    Metric("action.prepare_ms", "ms", _L,
           "setup_s on all; flow.ladder_s", "-"),
    Metric("isa.codegen_ms", "ms", _L,
           f"setup_s on {FARM}; rep_s on {FLOW} (ladder)",
           f"rep_s on {SMD}"),
    Metric("isa.cycle_cost_calls", "count", _L,
           f"setup_s on {FARM}; rep_s on {FLOW} (ladder)",
           f"rep_s on {SMD} (~2k calls)"),
    Metric("isa.cycle_cost_ms", "ms", _L,
           f"setup_s on {FARM}; rep_s on {FLOW} (ladder)",
           f"rep_s on {SMD}"),
    Metric("isa.wcet_ms", "ms", _L,
           f"setup_s on {FARM}; rep_s on {FLOW} (ladder)",
           f"rep_s on {SMD}"),
    Metric("sla.synth_ms", "ms", _L, "setup_s on all", "flow.ladder_s"),
    Metric("sla.enabled_calls", "count", _L,
           f"rep_s on {SMD} most, on {ELEV} less", "flow.ladder_s"),
    Metric("sla.enabled_ms", "ms", _L,
           f"rep_s on {SMD} most, on {ELEV} less", "flow.ladder_s"),
    Metric("sla.distinct_cr", "count", _L,
           f"rep_s on {SMD} (memo working set)", "flow.ladder_s"),
    Metric("sla.product_terms", "count", _L,
           f"rep_s on {SMD} and {ELEV}", "flow.ladder_s"),
    Metric("sla.pack_ms", "ms", _L,
           f"rep_s on {SMD} most, on {ELEV} less", "flow.ladder_s"),
    Metric("flow.build_calls", "count", _L,
           f"rep_s on {FLOW} (ladder); setup_s", f"rep_s on {SMD}, {ELEV}"),
    Metric("flow.build_ms", "ms", _L,
           f"rep_s on {FLOW} (ladder); setup_s", f"rep_s on {SMD}, {ELEV}"),
    Metric("flow.validate_ms", "ms", _L,
           f"rep_s on {FLOW} (ladder, check)", f"rep_s on {SMD}, {ELEV}"),
    Metric("flow.ladder_rungs", "count", _L,
           f"rep_s on {FLOW}", f"rep_s on {SMD}, {ELEV}"),
    Metric("flow.ladder_s", "s", _L, f"rep_s on {FLOW}",
           f"rep_s on {SMD}, {ELEV}"),
    Metric("hw.area_ms", "ms", _L, f"rep_s on {FLOW} (ladder)", "-"),
    Metric("pscp.step_calls", "count", _L,
           f"rep_s on {SMD}, {ELEV}; resil.inproc_items_per_s",
           "analysis.verify_s"),
    Metric("pscp.step_ms", "ms", _L,
           f"rep_s on {SMD}, {ELEV}; resil.inproc_items_per_s",
           "analysis.verify_s"),
    Metric("pscp.step_p50_us", "us", _L,
           f"rep_s on {SMD}, {ELEV}", "analysis.verify_s"),
    Metric("pscp.step_p99_us", "us", _L,
           f"rep_s on {SMD}, {ELEV}", "analysis.verify_s"),
    Metric("pscp.tep_run_calls", "count", _L,
           f"rep_s on {ELEV} mostly", "analysis.verify_s"),
    Metric("pscp.tep_run_ms", "ms", _L,
           f"rep_s on {ELEV} mostly, on {SMD} less", "analysis.verify_s"),
    Metric("pscp.instructions_retired", "count", _L,
           f"rep_s on {ELEV} mostly", "analysis.verify_s"),
    Metric("pscp.sim_cycles_per_s", "1/s", _H,
           f"rep_s on {SMD}, {ELEV}", "analysis.verify_s"),
    Metric("pscp.sim_ref_cycles", "cycles", _L,
           "nothing: modelled time, moved only by a change to the design",
           "every simulator-only change"),
    Metric("pscp.deadline_misses", "count", _L,
           "nothing: modelled deadlines, moved only by a change to the design",
           "every simulator-only change"),
    Metric("workloads.env_ms", "ms", _L,
           "nothing: a control for machine-only changes", f"rep_s on {SMD}"),
    Metric("analysis.lint_ms", "ms", _L,
           f"rep_s on {FLOW} (analysis.verify_s)", f"rep_s on {SMD}, {ELEV}"),
    Metric("analysis.bmc.explore_ms", "ms", _L,
           f"rep_s on {FLOW} (analysis.verify_s; smd chart mostly)",
           f"rep_s on {SMD}, {ELEV}"),
    Metric("analysis.bmc.successors_calls", "count", _L,
           f"rep_s on {FLOW} (analysis.verify_s)", f"rep_s on {SMD}, {ELEV}"),
    Metric("analysis.bmc.edges", "count", _L,
           f"rep_s on {FLOW} (analysis.verify_s)", f"rep_s on {SMD}, {ELEV}"),
    Metric("analysis.bmc.states", "count", _L,
           f"rep_s on {FLOW} (analysis.verify_s)", f"rep_s on {SMD}, {ELEV}"),
    Metric("analysis.bmc.replay_ms", "ms", _L,
           f"rep_s on {FLOW} (analysis.verify_s; elevator chart only)",
           f"rep_s on {SMD}, {ELEV}"),
    Metric("analysis.verify_s", "s", _L, f"rep_s on {FLOW}",
           f"rep_s on {SMD}, {ELEV}"),
    Metric("fault.guard_bind_ms", "ms", _L, f"setup_s on {FARM}",
           f"rep_s on {SMD}"),
    Metric("resil.start_ms", "ms", _L, f"setup_s on {FARM}",
           "every other workload"),
    Metric("resil.send_ms", "ms", _L,
           f"rep_s on {FARM} (resil.items_per_s)", "every other workload"),
    Metric("resil.recv_wait_ms", "ms", _L,
           f"rep_s on {FARM} (resil.items_per_s)", "every other workload"),
    Metric("resil.frames", "count", _L,
           f"rep_s on {FARM} (resil.items_per_s)", "every other workload"),
    Metric("resil.frame_bytes", "bytes", _L,
           f"rep_s on {FARM} (resil.items_per_s)", "every other workload"),
    Metric("resil.delta_bytes_ratio", "ratio", _L,
           f"rep_s on {FARM} (resil.items_per_s)", "every other workload"),
    Metric("resil.snapshot_calls", "count", _L,
           f"rep_s on {FARM}", "every other workload"),
    Metric("resil.snapshot_ms", "ms", _L,
           f"rep_s on {FARM}", "every other workload"),
    Metric("resil.worker_advance_ms", "ms", _L,
           f"rep_s on {FARM} (resil.inproc_items_per_s)",
           "every other workload"),
    Metric("resil.checkpoints", "count", _L, f"rep_s on {FARM}",
           "every other workload"),
    Metric("resil.shed", "count", _L, f"rep_s on {FARM}",
           "every other workload"),
    Metric("resil.restarts", "count", _L, f"rep_s on {FARM}",
           "every other workload"),
    Metric("resil.items_per_s", "1/s", _H, f"rep_s on {FARM}",
           "every other workload"),
    Metric("resil.inproc_items_per_s", "1/s", _H, f"rep_s on {FARM}",
           "every other workload"),
    Metric("untraced_ms", "ms", _L, "-", "-"),
    Metric("trace_overhead", "ratio", _L, "-", "-"),
]
