"""Tests for RNIC flow-table dump validation."""

import pytest

from repro.core.rnic_validation import RnicValidator
from repro.network.faults import FaultInjector
from repro.network.issues import IssueType


@pytest.fixture
def setup(cluster, running_task):
    validator = RnicValidator(cluster)
    injector = FaultInjector(cluster)
    endpoint = running_task.container(1).endpoint(0)
    rnic = cluster.overlay.rnic_of(endpoint)
    return validator, injector, rnic, running_task


class TestValidation:
    def test_healthy_rnic_is_clean(self, setup):
        validator, _, rnic, _ = setup
        finding = validator.validate(rnic)
        assert not finding.suspicious

    def test_silent_invalidation_found(self, setup):
        validator, injector, rnic, _ = setup
        injector.inject_issue(
            IssueType.REPETITIVE_FLOW_OFFLOADING, rnic, start=0.0
        )
        finding = validator.validate(rnic)
        assert finding.suspicious
        assert finding.silently_invalidated > 0
        assert finding.invalidation_count > 0

    def test_software_path_rules_found(self, setup, cluster):
        validator, injector, rnic, task = setup
        injector.inject_issue(
            IssueType.OFFLOADING_FAILURE, rnic, start=0.0
        )
        finding = validator.validate(rnic)
        assert finding.software_path_rules > 0
        assert finding.silently_invalidated == 0

    def test_clean_after_fault_cleared(self, setup):
        validator, injector, rnic, _ = setup
        fault = injector.inject_issue(
            IssueType.REPETITIVE_FLOW_OFFLOADING, rnic, start=0.0
        )
        injector.clear(fault, at=1.0)
        assert not validator.validate(rnic).suspicious

    def test_dump_counter_tracks_intrusive_operations(self, setup):
        validator, _, rnic, _ = setup
        validator.validate(rnic)
        validator.validate(rnic)
        assert validator.dumps_performed == 2

    def test_other_rnics_unaffected_by_fault(self, setup, cluster):
        validator, injector, rnic, task = setup
        injector.inject_issue(
            IssueType.REPETITIVE_FLOW_OFFLOADING, rnic, start=0.0
        )
        other = cluster.overlay.rnic_of(task.container(2).endpoint(0))
        assert not validator.validate(other).suspicious
