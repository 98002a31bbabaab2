"""Tests for the cluster-wide OVS ↔ RNIC offload-consistency pass."""

import pytest

from repro.cluster.flowtable import FlowAction, FlowKey
from repro.core.rnic_validation import RnicValidator
from repro.network.issues import IssueType
from repro.verify.framework import Severity, VerificationContext
from repro.verify.flowtable_passes import OffloadConsistencyPass


@pytest.fixture
def scenario(small_scenario):
    return small_scenario


def run_pass(scenario):
    return OffloadConsistencyPass().run(
        VerificationContext.from_scenario(scenario)
    )


def first_offloaded_rule(overlay):
    """An (host, rule, rnic) triple for some hardware-offloaded rule."""
    for host in overlay.hosts_with_tables():
        for rule in overlay.ovs_table(host).rules():
            if rule.offloaded and rule.offloaded_to is not None:
                rnic = next(
                    r for r in overlay.offload_rnics()
                    if str(r) == rule.offloaded_to
                )
                return host, rule, rnic
    raise AssertionError("scenario has no offloaded rules")


class TestOffloadConsistencyPass:
    def test_healthy_scenario_is_clean(self, scenario):
        result = run_pass(scenario)
        assert result.findings == []
        assert result.checked > 0

    def test_software_path_is_a_state_not_a_finding(self, scenario):
        # A forced VTEP demotes its rules and empties its cache: Step 3
        # reads the software path as evidence, the pass finds nothing.
        rnic = scenario.rnic_of_rank(0)
        scenario.injector.inject_issue(
            IssueType.OFFLOADING_FAILURE, rnic, start=scenario.engine.now
        )
        finding = RnicValidator(scenario.cluster).validate(rnic)
        assert finding.software_path_rules > 0
        assert run_pass(scenario).findings == []

    def test_silent_invalidation_names_the_rnic(self, scenario):
        overlay = scenario.cluster.overlay
        _, rule, rnic = first_offloaded_rule(overlay)
        overlay.offload_table(rnic).invalidate(rule.key)
        result = run_pass(scenario)
        errors = [
            f for f in result.findings if f.severity is Severity.ERROR
        ]
        assert len(errors) == 1
        assert errors[0].component == str(rnic)
        assert "silent invalidation" in errors[0].explanation
        assert any("Figure-18" in d for d in errors[0].details)

    def test_stale_hardware_rule(self, scenario):
        overlay = scenario.cluster.overlay
        _, _, rnic = first_offloaded_rule(overlay)
        ghost = FlowKey(999, "203.0.113.9")
        sample = overlay.offload_table(rnic).rules()[0]
        overlay.offload_table(rnic).install(ghost, sample.action)
        result = run_pass(scenario)
        stale = [
            f for f in result.findings
            if "stale hardware rule" in f.explanation
        ]
        assert len(stale) == 1
        assert stale[0].component == str(rnic)
        assert stale[0].severity is Severity.ERROR

    def test_action_mismatch(self, scenario):
        # Probing installs the ENCAP rules ensure_flow lazily offloads.
        scenario.run_for(10)
        overlay = scenario.cluster.overlay
        rule, rnic = next(
            (r, n)
            for h in overlay.hosts_with_tables()
            for r in overlay.ovs_table(h).rules()
            for n in overlay.offload_rnics()
            if r.offloaded and r.offloaded_to == str(n)
            and r.action.remote_underlay_ip
        )
        hw_rule = overlay.offload_table(rnic).lookup(rule.key)
        hw_rule.action = FlowAction(
            kind=rule.action.kind,
            remote_underlay_ip="198.51.100.77",
        )
        result = run_pass(scenario)
        mismatches = [
            f for f in result.findings
            if "differs from" in f.explanation
        ]
        assert len(mismatches) == 1
        assert mismatches[0].component == str(rnic)
        # Claimed despite the mismatch: no unaccounted double-count.
        assert not any(
            "unaccounted" in f.explanation for f in result.findings
        )

    def test_unaccounted_hardware_rule_is_warning(self, scenario):
        overlay = scenario.cluster.overlay
        _, rule, rnic = first_offloaded_rule(overlay)
        rule.offloaded = False
        rule.offloaded_to = None
        result = run_pass(scenario)
        warnings = [
            f for f in result.findings
            if f.severity is Severity.WARNING
        ]
        assert warnings
        assert all(f.component == str(rnic) for f in warnings)
        explanations = " ".join(f.explanation for f in warnings)
        assert "unaccounted" in explanations or "cache holds it" \
            in explanations

    def test_rule_in_two_caches_on_one_host(self, scenario):
        overlay = scenario.cluster.overlay
        host, rule, rnic = first_offloaded_rule(overlay)
        other = next(
            r for r in overlay.offload_rnics()
            if r.host == host and r != rnic
        )
        overlay.offload_table(other).install(rule.key, rule.action)
        result = run_pass(scenario)
        doubled = [
            f for f in result.findings
            if "more than one RNIC cache" in f.explanation
        ]
        assert len(doubled) == 1
        assert doubled[0].component == str(other)

    def test_offloaded_to_unset(self, scenario):
        overlay = scenario.cluster.overlay
        host, rule, rnic = first_offloaded_rule(overlay)
        overlay.offload_table(rnic).invalidate(rule.key)
        rule.offloaded_to = None
        result = run_pass(scenario)
        unset = [
            f for f in result.findings
            if "names no RNIC" in f.explanation
        ]
        assert len(unset) == 1
        assert unset[0].component == f"ovs:{host}"
