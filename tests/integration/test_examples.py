"""Smoke tests: every example script must run end to end.

Examples are user-facing documentation; these tests keep them from
rotting.  The slow campaign example is exercised through the CLI's
equivalent path instead of in full.
"""

import runpy
import sys

import pytest


def run_example(name, argv=()):
    sys_argv = sys.argv
    sys.argv = [name, *argv]
    try:
        runpy.run_path(f"examples/{name}", run_name="__main__")
    finally:
        sys.argv = sys_argv


class TestExamples:
    def test_quickstart(self, capsys):
        run_example("quickstart.py")
        output = capsys.readouterr().out
        assert "localized to" in output
        assert "precision=1.000" in output

    def test_case_study(self, capsys):
        run_example("case_study_flow_inconsistency.py")
        output = capsys.readouterr().out
        assert "ALARM" in output
        assert "offloaded=True, n_packets=" in output
        assert "in the RNIC table: False" in output
        assert "recovered RTT" in output

    def test_operations(self, capsys):
        run_example("operations.py")
        output = capsys.readouterr().out
        assert "migrated" in output
        assert "blacklisted host-1 avoided: True" in output

    @pytest.mark.slow
    def test_moe_training(self, capsys):
        run_example("moe_training.py")
        output = capsys.readouterr().out
        assert "mesh" in output
        assert "coverage of real MoE traffic: 1.000" in output

    def test_export_figures(self, tmp_path, capsys):
        run_example("export_figures.py", argv=[str(tmp_path)])
        written = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert "fig15_probe_scale.csv" in written
        assert len(written) == 10

    @pytest.mark.slow
    def test_dense_model_monitoring(self, capsys):
        run_example("dense_model_monitoring.py")
        output = capsys.readouterr().out
        assert "edge coverage: 1.000" in output

    def test_multi_tenant(self, capsys):
        run_example("multi_tenant.py")
        output = capsys.readouterr().out
        assert "tenants alarmed: ['task-0', 'task-1']" in output
        assert "fused diagnosis" in output
        assert "incidents open after repair: 0" in output
