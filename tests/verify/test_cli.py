"""Tests for the verify CLI."""

import pytest

from repro.cli import main as repro_main
from repro.verify.cli import build_default_report, main as verify_main


class TestVerifyCli:
    def test_healthy_default_reports_zero_findings(self, capsys):
        code = verify_main(["--containers", "2", "--gpus", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 finding(s)" in out

    def test_injected_issue_yields_component_finding(self, capsys):
        code = verify_main([
            "--containers", "2", "--gpus", "2",
            "--issue", "REPETITIVE_FLOW_OFFLOADING",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "silent invalidation" in out
        assert "finding: host-0/rnic-0 [error]" in out

    def test_unknown_issue_exits_with_message(self):
        with pytest.raises(SystemExit, match="unknown issue"):
            verify_main([
                "--containers", "2", "--gpus", "2",
                "--issue", "NOT_A_REAL_ISSUE",
            ])

    def test_lint_mode_clean_package(self, capsys):
        code = verify_main(["--lint"])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_mode_fails_on_wall_clock_fixture(self, tmp_path,
                                                   capsys):
        fixture = tmp_path / "uses_wall_clock.py"
        fixture.write_text("import time\nnow = time.time()\n")
        code = verify_main(["--lint", str(fixture)])
        out = capsys.readouterr().out
        assert code == 1
        assert "wall-clock" in out

    def test_top_level_verify_subcommand(self, capsys):
        code = repro_main(["verify", "--containers", "2", "--gpus", "2"])
        assert code == 0
        assert "fabric verification" in capsys.readouterr().out

    def test_top_level_lint_subcommand(self, tmp_path, capsys):
        fixture = tmp_path / "dirty.py"
        fixture.write_text("import random\n")
        assert repro_main(["verify", "--lint", str(fixture)]) == 1

    def test_build_default_report_is_reusable(self):
        report = build_default_report(
            num_containers=2, gpus_per_container=2,
        )
        assert report.ok

