"""Tests for the verify CLI and the SkeletonHunter wiring."""

import pytest

from repro.cli import main as repro_main
from repro.verify.cli import build_default_report, main as verify_main
from repro.verify.framework import FabricVerificationError


@pytest.fixture
def dirty_package(tmp_path):
    """A throwaway package with one keyed-draw-contract violation."""
    root = tmp_path / "demo"
    (root / "network").mkdir(parents=True)
    (root / "__init__.py").write_text("")
    (root / "network" / "__init__.py").write_text("")
    (root / "network" / "noise.py").write_text(
        "import numpy.random as npr\n"
        "def jitter():\n"
        "    return npr.normal()\n"
    )
    return root


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


class TestFlowCli:
    def test_flow_mode_is_clean_on_the_package(self, capsys):
        code = verify_main(["--flow"])
        out = capsys.readouterr().out
        assert code == 0
        assert "flow.keyed-draw-contract" in out
        assert "0 finding(s)" in out

    def test_flow_mode_fails_on_contract_violation(self, dirty_package,
                                                   capsys):
        code = verify_main(["--flow", str(dirty_package)])
        out = capsys.readouterr().out
        assert code == 1
        assert "numpy.random.normal" in out
        assert "keyed-draw-contract" in out

    def test_missing_root_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        empty.mkdir()
        code = verify_main(["--flow", str(empty)])
        assert code == 2
        assert "failed" in capsys.readouterr().out

    def test_lint_and_flow_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            verify_main(["--lint", "--flow"])
        assert "mutually exclusive" in capsys.readouterr().err

    def test_top_level_flow_subcommand(self, dirty_package, capsys):
        assert repro_main(["verify", "--flow", str(dirty_package)]) == 1
        assert "keyed-draw-contract" in capsys.readouterr().out


class TestVerifyOnStart:
    def test_clean_fabric_starts_and_records_report(self):
        from repro.workloads.scenarios import build_scenario

        scenario = build_scenario(
            num_containers=2, gpus_per_container=2,
            verify_on_start=True,
        )
        assert scenario.hunter.last_verification is not None
        assert scenario.hunter.last_verification.ok

    def test_corrupt_fabric_refuses_to_start(self):
        from repro.workloads.scenarios import build_scenario

        scenario = build_scenario(
            num_containers=2, gpus_per_container=2,
            start_monitoring=False, verify_on_start=True,
        )
        overlay = scenario.cluster.overlay
        for host in overlay.hosts_with_tables():
            for rule in overlay.ovs_table(host).rules():
                if rule.offloaded and rule.offloaded_to:
                    rnic = next(
                        r for r in overlay.offload_rnics()
                        if str(r) == rule.offloaded_to
                    )
                    overlay.offload_table(rnic).invalidate(rule.key)
                    break
            else:
                continue
            break
        with pytest.raises(FabricVerificationError) as excinfo:
            scenario.hunter.start()
        assert "fabric verification failed" in str(excinfo.value)
        assert excinfo.value.report.errors()

    def test_verify_fabric_nonstrict_returns_report(self):
        from repro.workloads.scenarios import build_scenario

        scenario = build_scenario(
            num_containers=2, gpus_per_container=2,
        )
        report = scenario.hunter.verify_fabric(
            workload=scenario.workload, strict=False,
        )
        assert report.ok
        skipped = [r.name for r in report.results if r.skipped]
        assert skipped == []  # workload given: coverage pass ran
