"""Integration: the §8 operations loop wired onto a live system."""

import pytest

from repro.core.handling import FailureHandler
from repro.core.recovery import COOLDOWN_S, RecoveryManager
from repro.core.rollout import AgentReleaseManager, ReleaseChannel
from repro.network.issues import IssueType
from repro.workloads.scenarios import build_scenario


@pytest.fixture
def ops_scenario():
    scenario = build_scenario(
        num_containers=4, gpus_per_container=4, pp=2, seed=91,
        hosts_per_segment=4,
    )
    handler = FailureHandler()
    recovery = RecoveryManager(
        scenario.orchestrator, blacklist=handler.blacklist,
    )
    scenario.hunter.handler = handler
    scenario.hunter.recovery = recovery
    scenario.orchestrator.placement_filter = \
        handler.blacklist.host_allowed
    return scenario, handler, recovery


class TestAlertingLoop:
    def test_detection_raises_alerts(self, ops_scenario):
        scenario, handler, _ = ops_scenario
        scenario.run_for(150)
        scenario.inject(
            IssueType.RNIC_PORT_DOWN, scenario.rnic_of_rank(4)
        )
        scenario.run_for(40)
        assert handler.alerts
        components = {a.component for a in handler.alerts}
        assert any("rnic" in c for c in components)

    def test_culprit_blacklisted_automatically(self, ops_scenario):
        scenario, handler, _ = ops_scenario
        scenario.run_for(150)
        rnic = scenario.rnic_of_rank(4)
        scenario.inject(IssueType.RNIC_PORT_DOWN, rnic)
        scenario.run_for(40)
        assert not handler.blacklist.host_allowed(rnic.host)

    def test_new_task_avoids_blacklisted_host(self, ops_scenario):
        scenario, handler, _ = ops_scenario
        scenario.run_for(150)
        rnic = scenario.rnic_of_rank(4)
        fault = scenario.inject(IssueType.RNIC_PORT_DOWN, rnic)
        scenario.run_for(40)
        scenario.clear(fault)
        new_task = scenario.orchestrator.submit_task(
            2, 4, instant_startup=True
        )
        scenario.run_for(1)
        assert rnic.host not in {
            c.host for c in new_task.all_containers()
        }

    def test_healthy_run_keeps_blacklist_empty(self, ops_scenario):
        scenario, handler, _ = ops_scenario
        scenario.run_for(300)
        assert handler.blacklist.active() == []
        assert handler.alerts == []


class TestRecoveryLoop:
    def test_host_fault_triggers_automatic_migration(self, ops_scenario):
        scenario, handler, recovery = ops_scenario
        scenario.run_for(200)
        victim = scenario.task.container(1)
        bad_host = victim.host
        scenario.inject(IssueType.PCIE_NIC_ERROR, bad_host)
        scenario.run_for(90)
        migrations = recovery.successful_migrations()
        assert migrations
        assert victim.host != bad_host
        assert all(a.source == bad_host for a in migrations)

    def test_rnic_fault_migrates_the_victim_off_its_host(
        self, ops_scenario
    ):
        # Tomography names a dead RNIC's access link, not the RNIC:
        # the link implicates the RNIC's host exactly as placement's
        # blacklist reads it, so recovery moves the victim off it.
        scenario, handler, recovery = ops_scenario
        scenario.run_for(150)
        rnic = scenario.rnic_of_rank(4)
        victims = [
            c for c in scenario.task.running_containers()
            if c.host == rnic.host
        ]
        scenario.inject(IssueType.RNIC_PORT_DOWN, rnic)
        scenario.run_for(40)
        migrations = recovery.successful_migrations()
        assert victims and migrations
        assert {a.source for a in migrations} == {rnic.host}
        assert all(c.host != rnic.host for c in victims)
        assert not handler.blacklist.host_allowed(rnic.host)

    def test_monitoring_continues_after_migration(self, ops_scenario):
        scenario, handler, recovery = ops_scenario
        scenario.run_for(200)
        victim = scenario.task.container(1)
        fault = scenario.inject(IssueType.PCIE_NIC_ERROR, victim.host)
        scenario.run_for(90)
        scenario.clear(fault)
        assert recovery.successful_migrations()
        events_before = len(scenario.hunter.events)
        scenario.run_for(150)
        # The migrated container's pairs are probed and healthy again:
        # no new incidents pile up after the move.
        assert len(scenario.hunter.events) <= events_before + 1

    def test_second_failure_detected_and_healed_after_migration(
        self, ops_scenario
    ):
        scenario, handler, recovery = ops_scenario
        scenario.run_for(200)
        victim = scenario.task.container(1)
        first_host = victim.host
        fault = scenario.inject(IssueType.PCIE_NIC_ERROR, victim.host)
        scenario.run_for(90)
        scenario.clear(fault)
        handler.mark_repaired(
            f"host:{victim.host}", scenario.engine.now
        )
        scenario.run_for(COOLDOWN_S)  # the first move's cooldown ends
        second_host = victim.host
        assert second_host != first_host
        # Migration reset the stale baselines: no incident lingers.
        assert scenario.hunter.analyzer.open_events() == []

        # Break the *new* host's RNIC: the system detects it and — with
        # recovery wired — migrates the container off it again.
        rnic = scenario.cluster.overlay.rnic_of(victim.endpoint(0))
        events_before = len(scenario.hunter.events)
        fault2 = scenario.inject(IssueType.RNIC_PORT_DOWN, rnic)
        scenario.run_for(40)
        scenario.clear(fault2)
        fresh = scenario.hunter.events[events_before:]
        assert any(
            victim.id in (e.pair.src.container, e.pair.dst.container)
            for e in fresh
        )
        assert victim.host != second_host  # self-healed once more
        assert len(recovery.successful_migrations()) >= 2


class TestRolloutLoop:
    def test_release_rollout_across_tasks(self):
        scenario = build_scenario(
            num_containers=2, gpus_per_container=4, pp=1, seed=92,
        )
        releases = AgentReleaseManager("v1.0.0")
        scenario.hunter.controller.release_manager = releases
        # Agents of the first task predate the manager wiring; publish
        # and add a second task to observe the mixed fleet.
        scenario.run_for(10)
        releases.publish(
            "v2.0.0", ReleaseChannel.ROUTINE, at=scenario.engine.now
        )
        second = scenario.orchestrator.submit_task(
            2, 4, instant_startup=True
        )
        scenario.hunter.watch_task(second)
        scenario.run_for(5)
        versions = releases.fleet_versions(scenario.hunter.controller)
        assert versions.get("v2.0.0") == 2
        scenario.orchestrator.terminate_task(scenario.task.id)
        assert releases.rollout_fraction(
            scenario.hunter.controller
        ) == 1.0
