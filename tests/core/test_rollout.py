"""Tests for agent release management (§8)."""

import pytest

from repro.core.controller import Controller
from repro.core.rollout import AgentReleaseManager, ReleaseChannel


class TestPublishing:
    def test_initial_version(self):
        manager = AgentReleaseManager("v1.0.0")
        assert manager.current_version() == "v1.0.0"

    def test_latest_release_wins(self):
        manager = AgentReleaseManager("v1.0.0")
        manager.publish("v1.1.0", ReleaseChannel.ROUTINE, at=100.0)
        manager.publish("v1.1.1", ReleaseChannel.EMERGENCY, at=200.0)
        assert manager.current_version() == "v1.1.1"

    def test_version_at_time(self):
        manager = AgentReleaseManager("v1.0.0")
        manager.publish("v2.0.0", ReleaseChannel.ROUTINE, at=100.0)
        assert manager.current_version(at=50.0) == "v1.0.0"
        assert manager.current_version(at=100.0) == "v2.0.0"

    def test_chronological_order_enforced(self):
        manager = AgentReleaseManager()
        manager.publish("v2", ReleaseChannel.ROUTINE, at=100.0)
        with pytest.raises(ValueError):
            manager.publish("v3", ReleaseChannel.ROUTINE, at=50.0)

    def test_duplicate_version_rejected(self):
        manager = AgentReleaseManager("v1")
        with pytest.raises(ValueError):
            manager.publish("v1", ReleaseChannel.EMERGENCY, at=10.0)

    def test_emergency_channel_listing(self):
        manager = AgentReleaseManager()
        manager.publish("hotfix-1", ReleaseChannel.EMERGENCY, at=10.0)
        manager.publish("v2", ReleaseChannel.ROUTINE, at=20.0)
        assert [r.version for r in manager.emergency_releases()] == [
            "hotfix-1"
        ]


class TestFleetRollout:
    def test_new_agents_run_latest_version(
        self, cluster, orchestrator, engine
    ):
        manager = AgentReleaseManager("v1.0.0")
        controller = Controller(cluster)
        controller.release_manager = manager
        early = orchestrator.submit_task(2, 4, instant_startup=True)
        engine.run_until(0)
        controller.preload_task(early)
        for container in early.all_containers():
            controller.on_container_running(container, now=engine.now)

        manager.publish("v1.1.0", ReleaseChannel.ROUTINE, at=100.0)
        engine.run_until(100.0)
        late = orchestrator.submit_task(2, 4, instant_startup=True)
        engine.run_until(100.0)
        controller.preload_task(late)
        for container in late.all_containers():
            controller.on_container_running(container, now=engine.now)

        versions = manager.fleet_versions(controller)
        assert versions == {"v1.0.0": 2, "v1.1.0": 2}
        assert manager.rollout_fraction(controller) == 0.5

    def test_rollout_converges_as_old_tasks_finish(
        self, cluster, orchestrator, engine
    ):
        manager = AgentReleaseManager("v1.0.0")
        controller = Controller(cluster)
        controller.release_manager = manager
        early = orchestrator.submit_task(2, 4, instant_startup=True)
        engine.run_until(0)
        controller.preload_task(early)
        for container in early.all_containers():
            controller.on_container_running(container, now=engine.now)

        manager.publish("v1.1.0", ReleaseChannel.ROUTINE, at=50.0)
        engine.run_until(50.0)
        late = orchestrator.submit_task(2, 4, instant_startup=True)
        engine.run_until(50.0)
        controller.preload_task(late)
        for container in late.all_containers():
            controller.on_container_running(container, now=engine.now)

        # Old task drains: its agents disappear; the fleet converges.
        for container in early.all_containers():
            controller.on_container_finished(container)
        assert manager.rollout_fraction(controller) == 1.0

    def test_empty_fleet_is_vacuously_converged(self, cluster):
        manager = AgentReleaseManager()
        controller = Controller(cluster)
        controller.release_manager = manager
        assert manager.rollout_fraction(controller) == 1.0
