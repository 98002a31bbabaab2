"""Building and driving one replica of a fleet's shared fabric.

A fleet replica is the multi-tenant analogue of the shard plane's
scenario replica: topology, cluster, orchestrator, fault injector, and
data-plane fabric on one simulation clock, rebuilt from the frozen
:class:`~repro.fleet.spec.FleetSpec` alone.  Unlike a shard replica it
starts *empty* — tasks are submitted, rescheduled, and terminated by
replaying the lifecycle plan round by round, so every replica (every
fleet worker, every failover rebuild) walks through the identical
sequence of placements and arrives at the identical fabric state.

Probe randomness uses the fabric's pairwise draw source keyed by the
run seed, so probe outcomes depend only on (seed, pair, time) —
not on which worker sends the probe or how tenants are sharded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cluster.container import Container
from repro.cluster.identifiers import ContainerId
from repro.cluster.orchestrator import (
    Cluster,
    Orchestrator,
    PlacementError,
)
from repro.cluster.topology import RailOptimizedTopology
from repro.fleet.lifecycle import (
    ADMIT,
    DEPART,
    RESCHEDULE,
    LifecycleEvent,
)
from repro.fleet.spec import FleetSpec
from repro.network.fabric import DataPlaneFabric
from repro.network.faults import FaultInjector
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RngRegistry

__all__ = ["FleetReplica", "build_fleet_replica"]


@dataclass
class FleetReplica:
    """One process's rebuildable copy of the fleet's shared world."""

    spec: FleetSpec
    topology: RailOptimizedTopology
    cluster: Cluster
    engine: SimulationEngine
    rng: RngRegistry
    orchestrator: Orchestrator
    injector: FaultInjector
    fabric: DataPlaneFabric
    #: Reschedules that found no free host (deterministic across
    #: replicas; counted so rollups can expose placement pressure).
    failed_reschedules: int = 0

    def apply_lifecycle(self, events: List[LifecycleEvent]) -> None:
        """Replay lifecycle transitions against this replica.

        Applied in plan order just before the round's probes; the
        engine is flushed after submissions so instant-startup
        containers reach RUNNING before any churn or probing touches
        them.
        """
        for event in events:
            if event.kind == ADMIT:
                tenant = self.spec.tenant(event.tenant)
                self.orchestrator.submit_task(
                    tenant.num_containers,
                    tenant.gpus_per_container,
                    task_id=self.spec.task_id_of(event.tenant),
                    instant_startup=True,
                )
                self.engine.run_until(self.engine.now)
            elif event.kind == DEPART:
                self.orchestrator.terminate_task(
                    self.spec.task_id_of(event.tenant)
                )
            elif event.kind == RESCHEDULE:
                self._reschedule(event)
            # REJECT events have no cluster-side effect.

    def _reschedule(self, event: LifecycleEvent) -> None:
        task_id = self.spec.task_id_of(event.tenant)
        task = self.orchestrator.tasks.get(task_id)
        if task is None or event.rank is None:
            return
        container = task.containers.get(ContainerId(task_id, event.rank))
        if container is None:
            return
        self.engine.run_until(self.engine.now)
        if not container.is_running:
            return
        try:
            self.orchestrator.migrate_container(container)
        except PlacementError:
            # Every replica sees the same full fabric, so this branch
            # is taken identically everywhere — determinism holds.
            self.failed_reschedules += 1

    def container_of(
        self, container_id: ContainerId
    ) -> Optional[Container]:
        """Resolve a container id against current placements."""
        task = self.orchestrator.tasks.get(container_id.task)
        if task is None:
            return None
        return task.containers.get(container_id)


def build_fleet_replica(spec: FleetSpec) -> FleetReplica:
    """Build an empty fleet replica from the spec.

    Probe draws are keyed by the spec seed (the replica's registry
    seed), so outcomes are independent of placement and worker.
    """
    topology = RailOptimizedTopology(
        num_segments=spec.segments,
        hosts_per_segment=spec.hosts_per_segment,
        rails_per_host=spec.rails_per_host,
        num_spines=spec.num_spines,
    )
    cluster = Cluster(topology)
    engine = SimulationEngine()
    rng = RngRegistry(spec.seed)
    orchestrator = Orchestrator(cluster, engine, rng)
    injector = FaultInjector(cluster)
    return FleetReplica(
        spec=spec,
        topology=topology,
        cluster=cluster,
        engine=engine,
        rng=rng,
        orchestrator=orchestrator,
        injector=injector,
        fabric=DataPlaneFabric(cluster, injector, rng),
    )

