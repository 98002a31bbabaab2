"""Tests for alerting and blacklisting (§8)."""

import pytest

from repro.cluster.identifiers import HostId
from repro.core.handling import (
    MIN_CONFIDENCE,
    Alert,
    AlertSeverity,
    Blacklist,
    FailureHandler,
)
from repro.core.localization import Diagnosis, LocalizationReport
from repro.core.pinglist import ProbePair
from repro.cluster.identifiers import ContainerId, EndpointId, TaskId
from repro.network.issues import ComponentClass


def diagnosis(component, evidence="component down", layer="underlay",
              confidence=1.0):
    pair = ProbePair.canonical(
        EndpointId(ContainerId(TaskId(0), 0), 0),
        EndpointId(ContainerId(TaskId(0), 1), 0),
    )
    return Diagnosis(
        component=component, component_class=ComponentClass.RNIC,
        layer=layer, evidence=evidence, pairs=(pair,),
        confidence=confidence,
    )


def report(*diagnoses):
    return LocalizationReport(diagnoses=list(diagnoses))


class TestBlacklist:
    def test_add_and_contains(self):
        blacklist = Blacklist()
        blacklist.add("host-1/rnic-0", at=10.0, reason="port down")
        assert blacklist.contains("host-1/rnic-0")
        assert not blacklist.contains("host-1/rnic-1")

    def test_clear_readmits(self):
        blacklist = Blacklist()
        blacklist.add("tor-3", at=10.0, reason="offline")
        assert blacklist.clear("tor-3", at=20.0)
        assert not blacklist.contains("tor-3")
        assert not blacklist.clear("tor-3", at=30.0)  # already cleared

    def test_relisting_after_clear(self):
        blacklist = Blacklist()
        blacklist.add("tor-3", at=10.0, reason="offline")
        blacklist.clear("tor-3", at=20.0)
        blacklist.add("tor-3", at=30.0, reason="offline again")
        assert blacklist.contains("tor-3")

    def test_host_allowed_blocks_rnic_level_entries(self):
        blacklist = Blacklist()
        blacklist.add("host-2/rnic-5", at=0.0, reason="down")
        assert not blacklist.host_allowed(HostId(2))
        assert blacklist.host_allowed(HostId(3))

    def test_host_allowed_blocks_host_and_ovs_entries(self):
        blacklist = Blacklist()
        blacklist.add("host:host-4", at=0.0, reason="pcie")
        blacklist.add("ovs:host-5", at=0.0, reason="vswitch")
        assert not blacklist.host_allowed(HostId(4))
        assert not blacklist.host_allowed(HostId(5))
        assert blacklist.host_allowed(HostId(6))

    def test_active_listing_sorted(self):
        blacklist = Blacklist()
        blacklist.add("b", at=0.0, reason="x")
        blacklist.add("a", at=0.0, reason="y")
        assert blacklist.active() == ["a", "b"]


class TestFailureHandler:
    def test_alert_raised_per_diagnosis(self):
        handler = FailureHandler()
        raised = handler.handle(5.0, report(
            diagnosis("host-1/rnic-0"), diagnosis("tor-2"),
        ))
        assert len(raised) == 2
        assert len(handler.alerts) == 2

    def test_notification_callback(self):
        seen = []
        handler = FailureHandler(notify=seen.append)
        handler.handle(5.0, report(diagnosis("host-1/rnic-0")))
        assert len(seen) == 1
        assert isinstance(seen[0], Alert)

    def test_severity_mapping(self):
        handler = FailureHandler()
        handler.handle(0.0, report(
            diagnosis("a", evidence="VTEP down"),
            diagnosis("b", evidence="10% packet loss on link"),
            diagnosis("c", evidence="latency distribution shifted"),
        ))
        severities = [a.severity for a in handler.alerts]
        assert severities == [
            AlertSeverity.CRITICAL, AlertSeverity.MAJOR,
            AlertSeverity.MINOR,
        ]
        assert len(handler.critical_alerts()) == 1

    def test_confident_diagnoses_blacklisted(self):
        handler = FailureHandler()
        handler.handle(0.0, report(diagnosis("host-1/rnic-0")))
        assert handler.blacklist.contains("host-1/rnic-0")

    def test_low_confidence_not_blacklisted(self):
        handler = FailureHandler()
        handler.handle(0.0, report(
            diagnosis(
                "host:host-3", confidence=MIN_CONFIDENCE - 0.1, layer="host"
            )
        ))
        assert not handler.blacklist.contains("host:host-3")
        assert handler.alerts  # but the team is still told

    def test_mark_repaired_reopens_scheduling(self):
        handler = FailureHandler()
        handler.handle(0.0, report(diagnosis("host-1/rnic-0")))
        assert not handler.blacklist.host_allowed(HostId(1))
        assert handler.mark_repaired("host-1/rnic-0", at=100.0)
        assert handler.blacklist.host_allowed(HostId(1))


class TestRepairCascade:
    def test_clear_without_cascade_touches_one_entry(self):
        blacklist = Blacklist()
        blacklist.add("host-1/rnic-0", at=0.0, reason="down", group="g")
        blacklist.add("host:host-1", at=0.0, reason="derived", group="g")
        assert blacklist.clear("host-1/rnic-0", at=10.0)
        assert not blacklist.contains("host-1/rnic-0")
        assert blacklist.contains("host:host-1")  # operator clears stay narrow

    def test_cascade_clears_the_provenance_group(self):
        blacklist = Blacklist()
        blacklist.add("host-1/rnic-0", at=0.0, reason="down", group="g")
        blacklist.add("host:host-1", at=0.0, reason="derived", group="g")
        blacklist.add("tor-9", at=0.0, reason="other report", group="h")
        assert blacklist.clear("host-1/rnic-0", at=10.0, cascade=True)
        assert not blacklist.contains("host-1/rnic-0")
        assert not blacklist.contains("host:host-1")
        assert blacklist.contains("tor-9")  # other groups untouched

    def test_cascade_without_group_is_a_plain_clear(self):
        blacklist = Blacklist()
        blacklist.add("a", at=0.0, reason="x")
        blacklist.add("b", at=0.0, reason="y")
        assert blacklist.clear("a", at=1.0, cascade=True)
        assert blacklist.contains("b")

    def test_repaired_rnic_does_not_strand_its_host(self):
        """The satellite regression: one report blacklists an RNIC and
        its host; mark_repaired on the RNIC must re-admit the host."""
        handler = FailureHandler()
        handler.handle(0.0, report(
            diagnosis("host-1/rnic-0"),
            diagnosis("host:host-1", layer="host"),
        ))
        assert handler.blacklist.contains("host:host-1")
        assert not handler.blacklist.host_allowed(HostId(1))
        assert handler.mark_repaired("host-1/rnic-0", at=50.0)
        assert not handler.blacklist.contains("host:host-1")
        assert handler.blacklist.host_allowed(HostId(1))

    def test_entries_from_different_reports_survive_each_other(self):
        handler = FailureHandler()
        handler.handle(0.0, report(diagnosis("host-1/rnic-0")))
        handler.handle(5.0, report(diagnosis("host-2/rnic-3")))
        handler.mark_repaired("host-1/rnic-0", at=50.0)
        assert handler.blacklist.contains("host-2/rnic-3")

    def test_relisted_component_gets_its_new_group(self):
        """A component repaired and later re-blacklisted by a fresh
        report cascades with the *new* report's siblings."""
        handler = FailureHandler()
        handler.handle(0.0, report(diagnosis("host-1/rnic-0")))
        handler.mark_repaired("host-1/rnic-0", at=10.0)
        handler.handle(20.0, report(
            diagnosis("host-1/rnic-0"),
            diagnosis("host:host-1", layer="host"),
        ))
        handler.mark_repaired("host-1/rnic-0", at=30.0)
        assert not handler.blacklist.contains("host:host-1")


class TestSchedulingIntegration:
    def test_blacklisted_host_not_used_for_new_tasks(
        self, cluster, engine, rng
    ):
        from repro.cluster.orchestrator import Orchestrator

        blacklist = Blacklist()
        blacklist.add("host:host-0", at=0.0, reason="bad board")
        orchestrator = Orchestrator(cluster, engine, rng)
        orchestrator.placement_filter = blacklist.host_allowed
        task = orchestrator.submit_task(3, 4, instant_startup=True)
        engine.run_until(0)
        hosts = {c.host for c in task.all_containers()}
        assert HostId(0) not in hosts

    def test_placement_fails_when_everything_blacklisted(
        self, cluster, engine, rng
    ):
        from repro.cluster.orchestrator import (
            Orchestrator, PlacementError,
        )

        blacklist = Blacklist()
        for host_id in cluster.hosts:
            blacklist.add(f"host:{host_id}", at=0.0, reason="outage")
        orchestrator = Orchestrator(cluster, engine, rng)
        orchestrator.placement_filter = blacklist.host_allowed
        with pytest.raises(PlacementError):
            orchestrator.submit_task(1, 4)


class TestScopedBlacklist:
    """Tenant isolation: entries are keyed by (scope, component), so
    identical component names from different tenants never collide."""

    def test_same_component_in_two_scopes_is_two_entries(self):
        blacklist = Blacklist()
        blacklist.add("host:h3", at=1.0, reason="a's view", scope="a")
        blacklist.add("host:h3", at=2.0, reason="b's view", scope="b")
        assert blacklist.contains("host:h3", scope="a")
        assert blacklist.contains("host:h3", scope="b")
        assert blacklist.active_entries() == [
            ("a", "host:h3"), ("b", "host:h3"),
        ]

    def test_clearing_one_scope_leaves_the_other_listed(self):
        blacklist = Blacklist()
        blacklist.add("host:h3", at=1.0, reason="down", scope="a")
        blacklist.add("host:h3", at=1.0, reason="down", scope="b")
        assert blacklist.clear("host:h3", at=5.0, scope="a")
        assert not blacklist.contains("host:h3", scope="a")
        assert blacklist.contains("host:h3", scope="b")

    def test_cascade_clear_never_crosses_scopes(self):
        blacklist = Blacklist()
        blacklist.add("h1/rnic-0", at=1.0, reason="down",
                      group="report@1", scope="a")
        blacklist.add("host:h1", at=1.0, reason="derived",
                      group="report@1", scope="a")
        blacklist.add("host:h1", at=1.0, reason="derived",
                      group="report@1", scope="b")
        blacklist.clear("h1/rnic-0", at=5.0, cascade=True, scope="a")
        assert not blacklist.contains("host:h1", scope="a")
        assert blacklist.contains("host:h1", scope="b")

    def test_unscoped_query_is_the_conservative_union(self):
        blacklist = Blacklist()
        blacklist.add("host:h3", at=1.0, reason="down", scope="a")
        assert blacklist.contains("host:h3")          # any scope
        assert blacklist.active() == ["host:h3"]      # union view
        assert blacklist.active(scope="b") == []      # b's own view

    def test_instance_scope_is_the_default_for_every_call(self):
        tenant_view = Blacklist(scope="a")
        tenant_view.add("host:h3", at=1.0, reason="down")
        assert tenant_view.contains("host:h3")        # a's view
        assert tenant_view.active_entries() == [("a", "host:h3")]
        assert not tenant_view.contains("host:h3", scope="b")

    def test_host_allowed_respects_scope(self):
        blacklist = Blacklist()
        blacklist.add("host:host-2", at=1.0, reason="down", scope="a")
        assert not blacklist.host_allowed(HostId(2))             # union
        assert not blacklist.host_allowed(HostId(2), scope="a")
        assert blacklist.host_allowed(HostId(2), scope="b")


class TestScopedHandler:
    def test_fleet_handler_writes_tenant_scoped_entries(self):
        handler = FailureHandler(blacklist=Blacklist(scope="job-a"))
        handler.handle(10.0, report(diagnosis("h1/rnic-0")))
        assert handler.blacklist.active_entries() == [
            ("job-a", "h1/rnic-0"),
        ]
        # Another tenant's identically-named component is unaffected.
        other = Blacklist(scope="job-b")
        assert not other.contains("h1/rnic-0")
