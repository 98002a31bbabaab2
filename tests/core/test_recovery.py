"""Tests for migration-based recovery (§8 live-migration extension)."""

import pytest

from repro.cluster.identifiers import HostId
from repro.cluster.orchestrator import PlacementError
from repro.core.handling import Blacklist
from repro.core.localization import Diagnosis, LocalizationReport
from repro.core.pinglist import ProbePair
from repro.core.recovery import (
    COOLDOWN_S,
    MAX_MIGRATIONS_PER_WINDOW,
    MIGRATION_WINDOW_S,
    RecoveryManager,
)
from repro.cluster.identifiers import ContainerId, EndpointId, TaskId
from repro.network.issues import ComponentClass


def host_report(host):
    pair = ProbePair.canonical(
        EndpointId(ContainerId(TaskId(0), 0), 0),
        EndpointId(ContainerId(TaskId(0), 1), 0),
    )
    return LocalizationReport(diagnoses=[Diagnosis(
        component=f"host:{host}",
        component_class=ComponentClass.HOST_BOARD,
        layer="host", evidence="board trouble", pairs=(pair,),
    )])


class TestMigration:
    def test_migrate_container_moves_everything(
        self, orchestrator, engine, cluster
    ):
        task = orchestrator.submit_task(2, 4, instant_startup=True)
        engine.run_until(0)
        container = task.container(0)
        old_host = container.host
        old_endpoints = container.endpoints()
        target = orchestrator.migrate_container(container)
        assert target != old_host
        assert container.host == target
        # Identity preserved: the endpoints stay addressable.
        assert container.endpoints() == old_endpoints
        for endpoint in old_endpoints:
            assert cluster.overlay.is_registered(endpoint)
            assert cluster.overlay.rnic_of(endpoint).host == target
        # The old host's resources are free again.
        assert len(cluster.host(old_host).free_gpus()) == 4

    def test_probing_works_after_migration(
        self, orchestrator, engine, cluster, rng
    ):
        from repro.network.fabric import DataPlaneFabric
        from repro.network.faults import FaultInjector

        task = orchestrator.submit_task(2, 4, instant_startup=True)
        engine.run_until(0)
        fabric = DataPlaneFabric(cluster, FaultInjector(cluster), rng)
        container = task.container(0)
        orchestrator.migrate_container(container)
        result = fabric.send_probe(
            container.endpoint(0), task.container(1).endpoint(0), 1.0
        )
        assert result.ok

    def test_cannot_migrate_terminated_container(
        self, orchestrator, engine
    ):
        task = orchestrator.submit_task(2, 4, instant_startup=True)
        engine.run_until(0)
        orchestrator.terminate_task(task.id)
        with pytest.raises(PlacementError):
            orchestrator.migrate_container(task.container(0))

    def test_excluded_hosts_respected(self, orchestrator, engine):
        task = orchestrator.submit_task(2, 4, instant_startup=True)
        engine.run_until(0)
        container = task.container(0)
        exclude = [
            h for h in orchestrator.cluster.hosts
            if h not in (container.host, HostId(7))
        ]
        target = orchestrator.migrate_container(
            container, exclude_hosts=exclude
        )
        assert target == HostId(7)

    def test_target_is_the_lowest_eligible_host(
        self, orchestrator, engine, cluster
    ):
        # The scan takes the first eligible host of ``cluster.hosts``,
        # which is the lowest because the dict is built in id order.
        assert list(cluster.hosts) == sorted(cluster.hosts)
        task = orchestrator.submit_task(3, 4, instant_startup=True)
        engine.run_until(0)
        assert [c.host for c in task.all_containers()] == [
            HostId(0), HostId(1), HostId(2),
        ]
        assert orchestrator.migrate_container(
            task.container(0), exclude_hosts=[HostId(3)]
        ) == HostId(4)
        # Host 0 is free again and the lowest.
        assert orchestrator.migrate_container(
            task.container(2)
        ) == HostId(0)

    def test_no_healthy_host_raises(self, orchestrator, engine):
        task = orchestrator.submit_task(2, 4, instant_startup=True)
        engine.run_until(0)
        container = task.container(0)
        everything = list(orchestrator.cluster.hosts)
        with pytest.raises(PlacementError):
            orchestrator.migrate_container(
                container, exclude_hosts=everything
            )


class TestRecoveryManager:
    def test_host_diagnosis_triggers_migration(
        self, orchestrator, engine
    ):
        task = orchestrator.submit_task(2, 4, instant_startup=True)
        engine.run_until(0)
        container = task.container(0)
        bad_host = container.host
        manager = RecoveryManager(orchestrator)
        actions = manager.react(10.0, host_report(bad_host))
        assert len(actions) == 1
        assert actions[0].succeeded
        assert actions[0].source == bad_host
        assert container.host != bad_host

    def test_rnic_diagnosis_implicates_its_host(
        self, orchestrator, engine, cluster
    ):
        task = orchestrator.submit_task(2, 4, instant_startup=True)
        engine.run_until(0)
        container = task.container(0)
        rnic = cluster.overlay.rnic_of(container.endpoint(0))
        pair = ProbePair.canonical(
            container.endpoint(0), task.container(1).endpoint(0)
        )
        report = LocalizationReport(diagnoses=[Diagnosis(
            component=str(rnic),
            component_class=ComponentClass.RNIC,
            layer="underlay", evidence="port down", pairs=(pair,),
        )])
        manager = RecoveryManager(orchestrator)
        actions = manager.react(10.0, report)
        assert actions and actions[0].succeeded

    def test_cooldown_prevents_thrashing(self, orchestrator, engine):
        task = orchestrator.submit_task(2, 4, instant_startup=True)
        engine.run_until(0)
        container = task.container(0)
        manager = RecoveryManager(orchestrator)
        first = manager.react(10.0, host_report(container.host))
        assert first and first[0].succeeded
        # A new report implicating the *new* host inside the cooldown
        # must not bounce the container again.
        second = manager.react(20.0, host_report(container.host))
        assert second == []
        # After the cooldown it may move again.
        third = manager.react(400.0, host_report(container.host))
        assert third and third[0].succeeded

    def test_window_cap_stops_cooldown_paced_thrashing(
        self, orchestrator, engine
    ):
        """A container bouncing between two flapping hosts at exactly
        ``COOLDOWN_S`` intervals satisfies the cooldown every time; the
        per-window cap must still stop the thrash."""
        task = orchestrator.submit_task(2, 4, instant_startup=True)
        engine.run_until(0)
        container = task.container(0)
        manager = RecoveryManager(orchestrator)
        moved = 0
        for tick in range(8):
            at = 10.0 + tick * COOLDOWN_S  # exactly one cooldown apart
            actions = manager.react(at, host_report(container.host))
            moved += sum(1 for a in actions if a.succeeded)
        assert moved == MAX_MIGRATIONS_PER_WINDOW  # capped, not 8
        assert manager.throttled > 0
        # Once the window slides past the early moves, it may migrate
        # again — the cap bounds rate, it is not a permanent ban.
        late = manager.react(
            10.0 + MIGRATION_WINDOW_S + 3 * COOLDOWN_S,
            host_report(container.host),
        )
        assert late and late[0].succeeded

    def test_blacklisted_hosts_not_chosen_as_targets(
        self, orchestrator, engine
    ):
        task = orchestrator.submit_task(2, 4, instant_startup=True)
        engine.run_until(0)
        container = task.container(0)
        blacklist = Blacklist()
        for host_id in orchestrator.cluster.hosts:
            if host_id not in (container.host, HostId(6)):
                blacklist.add(f"host:{host_id}", at=0.0, reason="bad")
        manager = RecoveryManager(orchestrator, blacklist=blacklist)
        actions = manager.react(10.0, host_report(container.host))
        assert actions[0].target == HostId(6)

    def test_failed_migration_recorded(self, orchestrator, engine):
        task = orchestrator.submit_task(2, 4, instant_startup=True)
        engine.run_until(0)
        container = task.container(0)
        blacklist = Blacklist()
        for host_id in orchestrator.cluster.hosts:
            if host_id != container.host:
                blacklist.add(f"host:{host_id}", at=0.0, reason="bad")
        manager = RecoveryManager(orchestrator, blacklist=blacklist)
        actions = manager.react(10.0, host_report(container.host))
        assert actions and not actions[0].succeeded
        assert manager.successful_migrations() == []

    def test_link_diagnoses_do_not_migrate(self, orchestrator, engine):
        task = orchestrator.submit_task(2, 4, instant_startup=True)
        engine.run_until(0)
        pair = ProbePair.canonical(
            task.container(0).endpoint(0), task.container(1).endpoint(0)
        )
        report = LocalizationReport(diagnoses=[Diagnosis(
            component="tor-0<->spine-1",
            component_class=ComponentClass.INTER_HOST_NETWORK,
            layer="underlay", evidence="CRC errors", pairs=(pair,),
        )])
        manager = RecoveryManager(orchestrator)
        assert manager.react(10.0, report) == []


class TestScopedRecovery:
    """The manager has one, global scope (the fleet never runs
    recovery): it migrates any task's containers and honours blacklist
    entries of every scope."""

    def test_unscoped_manager_sees_every_task(
        self, orchestrator, engine
    ):
        task_a = orchestrator.submit_task(2, 4, instant_startup=True)
        task_b = orchestrator.submit_task(2, 4, instant_startup=True)
        engine.run_until(0)
        shared = host_report(task_a.container(0).host)
        manager = RecoveryManager(orchestrator)
        actions = manager.react(10.0, shared)
        assert actions and actions[0].succeeded
        assert task_b.container(0).host is not None  # untouched peer

    def test_scope_keys_blacklist_queries(self, orchestrator, engine):
        """Entries stay keyed by scope, and the manager's unscoped query
        takes the conservative union: another scope's verdicts bind it."""
        task = orchestrator.submit_task(2, 4, instant_startup=True)
        engine.run_until(0)
        container = task.container(0)
        blacklist = Blacklist()
        for host_id in orchestrator.cluster.hosts:
            if host_id != container.host:
                blacklist.add(
                    f"host:{host_id}", at=0.0, reason="b's verdict",
                    scope="b",
                )
        assert blacklist.active(scope="a") == []
        manager = RecoveryManager(orchestrator, blacklist=blacklist)
        refused = manager.react(10.0, host_report(container.host))
        assert refused and not refused[0].succeeded

    def test_same_scope_blacklist_is_respected(
        self, orchestrator, engine
    ):
        task = orchestrator.submit_task(2, 4, instant_startup=True)
        engine.run_until(0)
        container = task.container(0)
        blacklist = Blacklist()
        for host_id in orchestrator.cluster.hosts:
            if host_id not in (container.host, HostId(5)):
                blacklist.add(
                    f"host:{host_id}", at=0.0, reason="bad", scope="a"
                )
        manager = RecoveryManager(orchestrator, blacklist=blacklist)
        actions = manager.react(10.0, host_report(container.host))
        assert actions[0].target == HostId(5)
