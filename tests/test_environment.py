"""Unit tests for the closed-loop environment harness."""

import pytest

from repro.flow import build_system
from repro.isa import MD16_TEP
from repro.workloads import (
    MoveCommand,
    SMD_ROUTINES,
    SmdClosedLoop,
    smd_chart,
)
from repro.workloads.motors import MotorSpec

FAST_MOTORS = {
    "X": MotorSpec("X", 50_000.0, 0.025e-3, 1.25, 2000.0),
    "Y": MotorSpec("Y", 50_000.0, 0.025e-3, 1.25, 2000.0),
    "Phi": MotorSpec("Phi", 9_000.0, 0.1, 900.0, 0.0),
}


class ConfigurationObserver:
    """A recorder that keeps only the union of visited configurations."""

    def __init__(self):
        self.visited = set()

    def bind(self, machine):
        pass

    def record_step(self, cycle, step):
        self.visited.update(step.configuration)


@pytest.fixture(scope="module")
def optimized_system():
    arch = MD16_TEP.with_(microcode_optimized=True)
    return build_system(smd_chart(), SMD_ROUTINES, arch, specialize=True)


class TestEventScheduling:
    def test_schedule_orders_by_time(self, optimized_system):
        loop = SmdClosedLoop(optimized_system)
        loop.schedule(300, "INIT")
        loop.schedule(100, "POWER")
        assert loop._due_events(150) == {"POWER"}
        assert loop._due_events(400) == {"INIT"}

    def test_due_events_record_arrivals(self, optimized_system):
        loop = SmdClosedLoop(optimized_system)
        loop.schedule(100, "DATA_VALID")
        loop._due_events(100)
        assert loop.monitor.records["DATA_VALID"][0].arrival_time == 100

    def test_command_transfer_schedules_bytes(self, optimized_system):
        loop = SmdClosedLoop(optimized_system)
        end = loop._issue_command(MoveCommand(10, 10, 2), start_time=0)
        data_valids = [entry for entry in loop._queue
                       if entry[2] == "DATA_VALID"]
        assert len(data_valids) == SmdClosedLoop.COMMAND_BYTES
        assert any(entry[2] == "END_DATA" for entry in loop._queue)
        assert end > SmdClosedLoop.COMMAND_BYTES * loop.COMMAND_PERIOD - 1


class TestRunLoop:
    def test_single_move_completes(self, optimized_system):
        loop = SmdClosedLoop(optimized_system, motor_specs=FAST_MOTORS)
        report = loop.run([MoveCommand(20, 15, 3)],
                          max_configuration_cycles=15000)
        assert report.all_moves_completed
        assert report.final_positions == {"X": 20, "Y": 15, "Phi": 3}
        assert report.configuration_cycles > 0
        assert report.total_cycles > 0

    def test_negative_moves_track_direction(self, optimized_system):
        loop = SmdClosedLoop(optimized_system, motor_specs=FAST_MOTORS)
        report = loop.run([MoveCommand(-10, 12, -2)],
                          max_configuration_cycles=15000)
        assert report.final_positions == {"X": -10, "Y": 12, "Phi": -2}

    def test_budget_exhaustion_reports_partial(self, optimized_system):
        loop = SmdClosedLoop(optimized_system, motor_specs=FAST_MOTORS)
        report = loop.run([MoveCommand(50, 50, 5)],
                          max_configuration_cycles=20)
        assert not report.all_moves_completed
        assert report.commands_completed == 0

    def test_deadline_reports_cover_constrained_events(self, optimized_system):
        loop = SmdClosedLoop(optimized_system, motor_specs=FAST_MOTORS)
        report = loop.run([MoveCommand(10, 10, 2)],
                          max_configuration_cycles=15000)
        events = {deadline.event for deadline in report.deadline_reports}
        assert events == {"DATA_VALID", "X_PULSE", "Y_PULSE", "PHI_PULSE"}

    def test_machine_visits_expected_states(self, optimized_system):
        loop = SmdClosedLoop(optimized_system, motor_specs=FAST_MOTORS)
        observer = ConfigurationObserver()
        loop.machine.attach_recorder(observer)
        loop.run([MoveCommand(10, 10, 2)], max_configuration_cycles=15000)
        assert {"Idle1", "Operation", "OpcodeReady", "Moving",
                "RunX", "RunY", "RunPhi"} <= observer.visited
