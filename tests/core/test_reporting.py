"""Tests for operator incident reporting."""

import pytest

from repro.core.reporting import build_report, render_report
from repro.network.issues import IssueType


@pytest.fixture
def run_with_fault(small_scenario):
    small_scenario.run_for(150)
    fault = small_scenario.inject(
        IssueType.RNIC_PORT_DOWN, small_scenario.rnic_of_rank(4)
    )
    small_scenario.run_for(60)
    small_scenario.clear(fault)
    small_scenario.run_for(150)
    return small_scenario


class TestBuildReport:
    def test_collects_incidents_in_range(self, run_with_fault):
        report = build_report(run_with_fault.hunter)
        assert report.incidents
        assert report.monitored_pairs > 0
        assert report.probes_sent > 0

    def test_range_filtering(self, run_with_fault):
        # Nothing happened in the first 100 seconds.
        early = build_report(run_with_fault.hunter, start=0.0, end=100.0)
        assert early.incidents == []
        late = build_report(run_with_fault.hunter, start=100.0)
        assert late.incidents

    def test_incidents_resolve_after_recovery(self, run_with_fault):
        report = build_report(run_with_fault.hunter)
        assert report.open_incidents == 0
        assert report.mean_resolution_s() > 0

    def test_symptom_breakdown(self, run_with_fault):
        report = build_report(run_with_fault.hunter)
        breakdown = report.symptom_breakdown()
        assert breakdown["unconnectivity"] >= 1

    def test_component_breakdown_names_culprit(self, run_with_fault):
        report = build_report(run_with_fault.hunter)
        rnic = str(run_with_fault.rnic_of_rank(4))
        assert any(
            rnic in component
            for component in report.component_breakdown()
        )


class TestRenderReport:
    def test_render_includes_key_facts(self, run_with_fault):
        text = render_report(build_report(run_with_fault.hunter))
        assert "incident report" in text
        assert "unconnectivity" in text
        assert "blamed components" in text
        assert "resolved" in text

    def test_render_healthy_range(self, small_scenario):
        small_scenario.run_for(120)
        text = render_report(build_report(small_scenario.hunter))
        assert "network healthy" in text
        assert "0 still open" in text

    def test_cli_report_subcommand(self, capsys):
        from repro.cli import main

        code = main([
            "report", "--containers", "4", "--gpus", "4",
            "--seed", "2", "--faults", "1",
        ])
        output = capsys.readouterr().out
        assert code == 0
        assert "incident report" in output
        assert "blamed components" in output


class TestWindowedProbeCounts:
    def test_full_range_matches_lifetime_totals(self, run_with_fault):
        report = build_report(run_with_fault.hunter)
        assert report.probes_windowed
        assert report.probes_sent == run_with_fault.fabric.probes_sent
        assert report.probes_lost == run_with_fault.fabric.probes_lost

    def test_subrange_counts_only_its_own_probes(self, run_with_fault):
        full = build_report(run_with_fault.hunter)
        first = build_report(run_with_fault.hunter, start=0.0, end=100.0)
        rest = build_report(run_with_fault.hunter, start=100.0)
        assert first.probes_windowed and rest.probes_windowed
        assert 0 < first.probes_sent < full.probes_sent
        assert first.probes_sent + rest.probes_sent == full.probes_sent
        assert first.probes_lost + rest.probes_lost == full.probes_lost

    def test_losses_fall_in_the_faulty_range(self, run_with_fault):
        # The fault ran from 150s to 210s: a window before it sees no
        # losses, the window around it sees them all.
        before = build_report(run_with_fault.hunter, start=0.0, end=150.0)
        during = build_report(run_with_fault.hunter, start=150.0, end=220.0)
        assert before.probes_lost == 0
        assert during.probes_lost > 0
