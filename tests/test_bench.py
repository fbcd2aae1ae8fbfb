"""Tests for the seeded perf-bench harness and the regression guard
(:mod:`repro.perf.bench`, :mod:`repro.perf.compare`, ``repro bench``).

Wall-clock numbers are host noise, so the assertions split along the
document's own policy line: everything simulated (determinism, latency,
counts) must agree byte-exactly between two runs, while wall metrics are
only exercised structurally or with injected, unambiguous deltas.
"""

import copy
import io
import json

import pytest

from repro.cli import run
from repro.perf import (
    BENCH_ID,
    BENCH_SCHEMA_VERSION,
    DEFAULT_TOLERANCE,
    WORKLOAD_NAMES,
    compare_documents,
    fingerprint,
    run_bench,
)

REPEATS = 2


@pytest.fixture(scope="module")
def elevator_doc():
    return run_bench(workloads=["elevator"], repeats=REPEATS)


@pytest.fixture(scope="module")
def elevator_doc_again():
    return run_bench(workloads=["elevator"], repeats=REPEATS)


class TestDocumentShape:
    def test_header(self, elevator_doc):
        assert elevator_doc["schema_version"] == BENCH_SCHEMA_VERSION
        assert elevator_doc["bench_id"] == BENCH_ID
        assert elevator_doc["fingerprint"] == fingerprint()
        assert set(fingerprint()) == {"python", "implementation",
                                      "machine", "system"}
        assert elevator_doc["config"]["repeats"] == REPEATS
        assert elevator_doc["calibration_ns"] > 0

    def test_workload_sections(self, elevator_doc):
        workload = elevator_doc["workloads"]["elevator"]
        assert set(workload) == {"determinism", "latency", "counts",
                                 "wall", "throughput", "profile"}
        assert workload["determinism"]["configuration_cycles"] == 2000
        assert workload["counts"]["instructions_retired"] > 0
        assert workload["latency"]  # deadline histograms populated
        for digest in workload["latency"].values():
            assert digest["count"] > 0
            assert "quantile_error_bounds" in digest

    def test_wall_and_throughput(self, elevator_doc):
        workload = elevator_doc["workloads"]["elevator"]
        wall = workload["wall"]
        assert wall["repeats"] == REPEATS
        assert len(wall["samples_ns"]) == REPEATS
        assert wall["best_ns"] == min(wall["samples_ns"])
        assert wall["best_ns"] <= wall["median_ns"]
        throughput = workload["throughput"]
        assert throughput["ns_per_reference_cycle"] > 0
        assert throughput["configuration_cycles_per_second"] > 0

    def test_profile_section(self, elevator_doc):
        profile = elevator_doc["workloads"]["elevator"]["profile"]
        assert profile["level"] == "opcode"
        assert profile["steps"] == 2000
        assert profile["opcodes"]  # opcode level attributes instructions
        assert profile["routines"]

    def test_profile_reports_sla_memo(self, elevator_doc):
        memo = elevator_doc["workloads"]["elevator"]["profile"]["sla_memo"]
        assert set(memo) == {"hits", "misses", "size", "limit"}
        assert memo["hits"] > memo["misses"] == memo["size"] > 0
        assert memo["size"] <= memo["limit"]

    def test_document_is_json_ready(self, elevator_doc):
        json.dumps(elevator_doc)

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            run_bench(workloads=["warehouse"])
        assert WORKLOAD_NAMES == ("smd", "elevator", "farm")


class TestTwoRunAgreement:
    def test_simulated_sections_are_byte_exact(self, elevator_doc,
                                               elevator_doc_again):
        mine = elevator_doc["workloads"]["elevator"]
        again = elevator_doc_again["workloads"]["elevator"]
        for section in ("determinism", "latency", "counts"):
            assert mine[section] == again[section]
        # the exact parts of the profile agree too (wall shares may not)
        for first, second in zip(mine["profile"]["phases"],
                                 again["profile"]["phases"]):
            assert first["phase"] == second["phase"]
            assert first["calls"] == second["calls"]
            assert first["modeled_cycles"] == second["modeled_cycles"]

    def test_compare_accepts_the_second_run(self, elevator_doc,
                                            elevator_doc_again):
        # same process, same fingerprint: wall is checked; a generous
        # tolerance keeps a noisy CI host from flaking the unit test (the
        # CI bench job runs the real tolerance against full-size runs)
        report = compare_documents(elevator_doc_again, elevator_doc,
                                   tolerance=2.0)
        assert report.wall_checked
        assert report.ok, report.render()
        assert any("elevator.determinism: exact match" in line
                   for line in report.lines)


def slowed(document, factor):
    """A deep copy with every wall metric *factor* times slower."""
    candidate = copy.deepcopy(document)
    for workload in candidate["workloads"].values():
        workload["wall"]["median_ns"] *= factor
        throughput = workload["throughput"]
        if "ns_per_reference_cycle" in throughput:
            throughput["ns_per_reference_cycle"] *= factor
    return candidate


class TestRegressionGuard:
    def test_injected_slowdown_fails(self, elevator_doc):
        report = compare_documents(slowed(elevator_doc, 1.25), elevator_doc,
                                   check_wall=True)
        assert DEFAULT_TOLERANCE < 0.20  # a >=20% slowdown must fail
        assert not report.ok
        assert any("wall.median_ns" in line for line in report.regressions)
        assert any("throughput.ns_per_reference_cycle" in line
                   for line in report.regressions)

    def test_within_tolerance_passes(self, elevator_doc):
        report = compare_documents(slowed(elevator_doc, 1.05), elevator_doc,
                                   check_wall=True)
        assert report.ok, report.render()

    def test_faster_never_fails(self, elevator_doc):
        report = compare_documents(slowed(elevator_doc, 0.5), elevator_doc,
                                   check_wall=True)
        assert report.ok, report.render()

    def test_calibration_normalizes_host_speed_drift(self, elevator_doc):
        # candidate ran 2x slower, but its calibration loop did too: a
        # host-speed artifact, not a regression
        candidate = slowed(elevator_doc, 2.0)
        candidate["calibration_ns"] = elevator_doc["calibration_ns"] * 2
        report = compare_documents(candidate, elevator_doc,
                                   check_wall=True)
        assert report.ok, report.render()
        assert any("host-speed ratio 2.00" in line
                   for line in report.lines)
        # same slowdown with an unchanged calibration is a real regression
        assert not compare_documents(slowed(elevator_doc, 2.0),
                                     elevator_doc, check_wall=True).ok

    def test_determinism_divergence_always_fails(self, elevator_doc):
        candidate = copy.deepcopy(elevator_doc)
        determinism = candidate["workloads"]["elevator"]["determinism"]
        determinism["instructions_retired"] += 1
        report = compare_documents(candidate, elevator_doc,
                                   check_wall=False)
        assert not report.ok
        assert any("simulated results diverged" in line
                   and "instructions_retired" in line
                   for line in report.regressions)

    def test_fingerprint_gates_the_wall_comparison(self, elevator_doc):
        candidate = slowed(elevator_doc, 10.0)
        candidate["fingerprint"] = dict(candidate["fingerprint"],
                                        machine="riscv128")
        report = compare_documents(candidate, elevator_doc)
        assert not report.wall_checked
        assert report.ok, report.render()  # simulated sections still match
        assert any("wall/throughput skipped" in line
                   for line in report.lines)
        # forcing the check overrides the gate
        forced = compare_documents(candidate, elevator_doc, check_wall=True)
        assert not forced.ok

    def test_schema_version_mismatch_fails_early(self, elevator_doc):
        candidate = copy.deepcopy(elevator_doc)
        candidate["schema_version"] = BENCH_SCHEMA_VERSION + 1
        report = compare_documents(candidate, elevator_doc)
        assert not report.ok
        assert len(report.regressions) == 1
        assert "schema_version" in report.regressions[0]

    def test_missing_workload_fails(self, elevator_doc):
        candidate = copy.deepcopy(elevator_doc)
        del candidate["workloads"]["elevator"]
        report = compare_documents(candidate, elevator_doc)
        assert not report.ok
        assert any("missing from candidate" in line
                   for line in report.regressions)

    def test_profile_section_is_never_compared(self, elevator_doc):
        candidate = copy.deepcopy(elevator_doc)
        candidate["workloads"]["elevator"]["profile"] = {"level": "none"}
        report = compare_documents(candidate, elevator_doc,
                                   check_wall=False)
        assert report.ok, report.render()


class TestBenchCli:
    def bench(self, *argv):
        out = io.StringIO()
        status = run(["bench", *argv], out=out)
        return status, out.getvalue()

    def test_emits_the_document(self, tmp_path):
        target = tmp_path / "BENCH_6.json"
        status, output = self.bench(
            "--workloads", "elevator", "--repeats", "1", "--warmup", "0",
            "--out", str(target))
        assert status == 0
        assert f"wrote {target}" in output
        assert "elevator: median" in output
        document = json.loads(target.read_text())
        assert document["bench_id"] == BENCH_ID
        assert list(document["workloads"]) == ["elevator"]

    def test_update_baseline_then_compare_candidate(self, tmp_path,
                                                    elevator_doc):
        baseline = tmp_path / "perf_baseline.json"
        baseline.write_text(json.dumps(elevator_doc))

        good = tmp_path / "good.json"
        good.write_text(json.dumps(slowed(elevator_doc, 1.0)))
        status, output = self.bench(
            "--compare", "--candidate", str(good),
            "--baseline", str(baseline), "--check-wall", "always")
        assert status == 0
        assert "comparison: OK" in output

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(slowed(elevator_doc, 1.25)))
        status, output = self.bench(
            "--compare", "--candidate", str(bad),
            "--baseline", str(baseline), "--check-wall", "always")
        assert status == 1
        assert "FAIL" in output and "regression" in output

    def test_candidate_requires_compare(self, tmp_path, capsys):
        status, _output = self.bench("--candidate", "whatever.json")
        assert status == 2
        assert "--candidate requires --compare" in capsys.readouterr().err

    def test_unreadable_baseline_is_an_input_error(self, tmp_path,
                                                   elevator_doc, capsys):
        candidate = tmp_path / "candidate.json"
        candidate.write_text(json.dumps(elevator_doc))
        status, _output = self.bench(
            "--compare", "--candidate", str(candidate),
            "--baseline", str(tmp_path / "nope.json"))
        assert status == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_workload_is_an_input_error(self, capsys):
        status, _output = self.bench("--workloads", "warehouse")
        assert status == 2
        assert "unknown workload" in capsys.readouterr().err
