"""Tests for the command-line front end."""

import io
import json

import pytest

from repro.cli import run

CHART = """
chart demo;
event GO period 900;
event STOP;
orstate Top { contains A, B; default A; }
basicstate A { transition { target B; label "GO/Fast()"; } }
basicstate B { transition { target A; label "STOP/Slow()"; } }
"""

ROUTINES = """
int:16 x;
void Fast() { x = x + 1; }
void Slow() { x = 0; }
"""

SLOW_ROUTINES = """
int:16 x;
void Fast() {
  int:16 i = 0;
  @bound(40) while (i < 40) { x = x + i; i = i + 1; }
}
void Slow() { x = 0; }
"""


@pytest.fixture
def project(tmp_path):
    chart_file = tmp_path / "demo.sc"
    chart_file.write_text(CHART)
    routine_file = tmp_path / "demo.c"
    routine_file.write_text(ROUTINES)
    return str(chart_file), str(routine_file)


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


class TestCli:
    def test_basic_run_reports_tables(self, project):
        code, text = invoke(list(project))
        assert code == 0
        assert "Table 2" in text and "Table 3" in text
        assert "all timing constraints met" in text
        assert "PSCP area estimate" in text

    def test_exit_code_on_violation(self, project, tmp_path):
        slow = tmp_path / "slow.c"
        slow.write_text(SLOW_ROUTINES)
        code, text = invoke([project[0], str(slow), "--arch", "minimal"])
        assert code == 1
        assert "timing violations" in text

    def test_json_summary(self, project):
        code, text = invoke([*project, "--json"])
        summary = json.loads(text)
        assert summary["chart"] == "demo"
        assert "GO" in summary["critical_paths"]
        assert summary["area_clbs"] > 0
        assert {"Fast", "Slow"} <= set(summary["routine_wcets"])

    def test_arch_and_teps_flags(self, project):
        code, text = invoke([*project, "--arch", "md16", "--teps", "2"])
        assert "2x" in text and "16bit" in text

    def test_optimize_flag(self, project):
        _, plain = invoke([*project, "--json"])
        _, optimized = invoke([*project, "--json", "--optimize"])
        plain_paths = json.loads(plain)["critical_paths"]
        opt_paths = json.loads(optimized)["critical_paths"]
        assert opt_paths["GO"] < plain_paths["GO"]

    def test_improve_mode(self, project, tmp_path):
        slow = tmp_path / "slow.c"
        slow.write_text(SLOW_ROUTINES)
        code, text = invoke([project[0], str(slow), "--improve"])
        assert "improvement trajectory" in text
        assert "baseline" in text

    def test_emit_artifacts(self, project):
        code, text = invoke([*project, "--emit", "blif", "--emit", "vhdl",
                             "--emit", "asm", "--emit", "dot"])
        assert ".model sla" in text
        assert "entity sla" in text
        assert "Fast" in text  # assembler labels
        assert "digraph" in text

    def test_floorplan_flag(self, project):
        code, text = invoke([*project, "--floorplan"])
        assert "floorplan" in text

    def test_missing_file_error(self, tmp_path):
        code, _ = invoke([str(tmp_path / "nope.sc"), str(tmp_path / "nope.c")])
        assert code == 2


class TestStatsCli:
    def test_json_reports_the_sla_memo(self, project):
        code, text = invoke(["stats", *project, "--json", "--cycles", "200"])
        assert code == 0
        document = json.loads(text)
        assert document["schema_version"] == 2
        memo = document["sla_memo"]
        assert set(memo) == {"hits", "misses", "size", "limit"}
        assert memo["hits"] + memo["misses"] == \
            document["configuration_cycles"]
        assert 0 < memo["size"] == memo["misses"] <= memo["limit"]

    def test_text_reports_the_sla_memo(self, project):
        code, text = invoke(["stats", *project, "--cycles", "200"])
        assert code == 0
        assert "SLA memo: " in text and " hits, " in text
