"""Recovery: migrating containers off failed components (§8).

The paper's team was developing a live-migration mechanism "for the
quick recovery of training containers ... to minimize the impact of
network failures".  This module implements that extension: when a
localization report blames a name that implicates a host, by the rule
that refuses the host to placement
(:func:`~repro.cluster.identifiers.implicated_host`), the recovery
manager migrates the affected RUNNING containers of watched tasks onto
healthy (non-blacklisted) hosts, with a per-container cooldown so one
flapping diagnosis cannot thrash the placement.

The fleet never runs recovery (``repro.fleet.controller``), so the
manager has one, global scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.cluster.container import Container
from repro.cluster.identifiers import ContainerId, HostId, implicated_host
from repro.cluster.orchestrator import Orchestrator, PlacementError
from repro.core.handling import Blacklist
from repro.core.localization import LocalizationReport

__all__ = ["MigrationAction", "RecoveryManager"]

#: Simulated seconds a migrated container waits before it may move again.
COOLDOWN_S = 300.0
#: Thrash guard: the cooldown alone lets a container bounce between two
#: flapping hosts forever at exactly :data:`COOLDOWN_S` intervals, so at
#: most this many moves per container fall in one window.
MAX_MIGRATIONS_PER_WINDOW = 3
MIGRATION_WINDOW_S = 3600.0


@dataclass(frozen=True)
class MigrationAction:
    """One executed (or attempted) container migration."""

    at: float
    container: ContainerId
    source: HostId
    target: Optional[HostId]   # None when no healthy host was available
    trigger: str               # the diagnosis component that caused it

    @property
    def succeeded(self) -> bool:
        """Whether a target host was found and the move happened."""
        return self.target is not None


class RecoveryManager:
    """Executes migrations in response to localization reports."""

    def __init__(
        self,
        orchestrator: Orchestrator,
        blacklist: Optional[Blacklist] = None,
    ) -> None:
        self.orchestrator = orchestrator
        self.blacklist = blacklist
        self.actions: List[MigrationAction] = []
        self.throttled = 0
        self._migration_times: Dict[ContainerId, List[float]] = {}

    # ------------------------------------------------------------------
    # Reaction
    # ------------------------------------------------------------------

    def react(self, at: float, report: LocalizationReport) -> List[
        MigrationAction
    ]:
        """Migrate containers implicated by a localization report."""
        performed: List[MigrationAction] = []
        for diagnosis in report.diagnoses:
            for container in self._victims_of(diagnosis.component):
                if not self._cooled_down(container.id, at):
                    continue
                performed.append(self._migrate(
                    at, container, diagnosis.component
                ))
        self.actions.extend(performed)
        return performed

    def _victims_of(self, component: str) -> List[Container]:
        """RUNNING containers sitting on the blamed component."""
        host_name = implicated_host(component)
        victims = []
        for task_id in sorted(self.orchestrator.tasks):
            task = self.orchestrator.tasks[task_id]
            for container in task.running_containers():
                if str(container.host) == host_name:
                    victims.append(container)
        return victims

    def _cooled_down(self, container_id: ContainerId, at: float) -> bool:
        history = self._migration_times.get(container_id)
        if not history:
            return True
        if at - history[-1] < COOLDOWN_S:
            return False
        recent = [t for t in history if at - t < MIGRATION_WINDOW_S]
        if len(recent) >= MAX_MIGRATIONS_PER_WINDOW:
            self.throttled += 1
            return False
        return True

    def _migrate(
        self, at: float, container: Container, trigger: str
    ) -> MigrationAction:
        source = container.host
        exclude = self._blacklisted_hosts()
        try:
            target = self.orchestrator.migrate_container(
                container, exclude_hosts=exclude
            )
        except PlacementError:
            target = None
        if target is not None:
            history = self._migration_times.setdefault(container.id, [])
            history.append(at)
            # Keep only timestamps the window cap can still see.
            cutoff = at - MIGRATION_WINDOW_S
            while history and history[0] < cutoff:
                history.pop(0)
        return MigrationAction(
            at=at, container=container.id, source=source,
            target=target, trigger=trigger,
        )

    def _blacklisted_hosts(self) -> List[HostId]:
        if self.blacklist is None:
            return []
        hosts: Set[HostId] = set()
        for host_id in self.orchestrator.cluster.hosts:
            if not self.blacklist.host_allowed(host_id):
                hosts.add(host_id)
        return sorted(hosts)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def successful_migrations(self) -> List[MigrationAction]:
        """Migrations that actually moved a container."""
        return [a for a in self.actions if a.succeeded]
