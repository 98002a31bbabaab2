"""Container orchestration: placement, lifecycle, and state callbacks.

The orchestrator plays the role of the paper's control plane (Figure 1):
it places the training nodes of a submitted task on hosts, binds GPUs and
RNIC VFs, and drives container state transitions on the simulation clock.
Startup is deliberately *asynchronous* — containers of one task become
RUNNING minutes apart (the paper's Figure 4), which is exactly what makes
naive ping-list activation produce false positives (§5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.cluster.container import Container, ContainerState, TrainingTask
from repro.cluster.host import Host
from repro.cluster.identifiers import ContainerId, HostId, RnicId, TaskId
from repro.cluster.overlay import OverlayNetwork
from repro.cluster.topology import RailOptimizedTopology
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RngRegistry

__all__ = ["Cluster", "Orchestrator", "PlacementError", "StartupModel"]


class PlacementError(RuntimeError):
    """Raised when a task cannot be placed on the cluster."""


class Cluster:
    """The physical plant: topology, hosts, and the shared overlay."""

    def __init__(
        self,
        topology: RailOptimizedTopology,
        num_vfs_per_rnic: int = 128,
        bandwidth_gbps: float = 200.0,
    ) -> None:
        self.topology = topology
        #: Keyed in ascending id order and never mutated, so a scan of
        #: ``hosts.values()`` meets the lowest eligible host first.
        self.hosts: Dict[HostId, Host] = {
            host_id: Host.build(
                host_id,
                num_gpus=topology.rails_per_host,
                num_vfs_per_rnic=num_vfs_per_rnic,
                bandwidth_gbps=bandwidth_gbps,
            )
            for host_id in sorted(topology.hosts)
        }
        self.overlay = OverlayNetwork()

    def host(self, host_id: HostId) -> Host:
        """The host object for ``host_id``."""
        if host_id not in self.hosts:
            raise PlacementError(f"unknown host {host_id}")
        return self.hosts[host_id]

    def underlay_ips_of(self, host_id: HostId) -> Dict[RnicId, str]:
        """Map each physical RNIC of ``host_id`` to its underlay IP."""
        host = self.host(host_id)
        return {rnic.id: rnic.underlay_ip for rnic in host.rnics}

    def total_free_gpus(self) -> int:
        """Unallocated GPUs across the whole cluster."""
        return sum(h.num_free_gpus for h in self.hosts.values())


@dataclass
class StartupModel:
    """Parametric model of container startup delays.

    ``base_s`` is the minimum initialization time; per-container jitter is
    log-normal so that most containers come up quickly while larger tasks
    show the long tail (up to ~10 minutes) reported in Figure 4.
    """

    base_s: float = 20.0
    jitter_sigma: float = 0.8
    jitter_scale_s: float = 30.0
    size_factor: float = 0.05

    def sample(
        self, rng: np.random.Generator, rank: int, task_size: int
    ) -> float:
        """Startup delay in seconds for the ``rank``-th container."""
        jitter = self.jitter_scale_s * float(rng.lognormal(
            mean=0.0, sigma=self.jitter_sigma
        ))
        size_penalty = self.size_factor * task_size * float(rng.random())
        return self.base_s + jitter + size_penalty


class Orchestrator:
    """Places tasks and drives container lifecycle on the sim clock."""

    def __init__(
        self,
        cluster: Cluster,
        engine: SimulationEngine,
        rng: RngRegistry,
    ) -> None:
        self.cluster = cluster
        self.engine = engine
        self._rng = rng.stream("orchestrator")
        self.startup_model = StartupModel()
        # Hosts failing this predicate are excluded from scheduling —
        # the hook SkeletonHunter's blacklist plugs into (§8), assigned
        # by the operator.
        self.placement_filter: Optional[Callable[[HostId], bool]] = None
        self.tasks: Dict[TaskId, TrainingTask] = {}
        self._next_task_index = 0
        self._on_running: List[Callable[[Container], None]] = []
        self._on_finished: List[Callable[[Container], None]] = []

    # ------------------------------------------------------------------
    # Callbacks
    # ------------------------------------------------------------------

    def on_container_running(
        self, callback: Callable[[Container], None]
    ) -> None:
        """Subscribe to container RUNNING transitions."""
        self._on_running.append(callback)

    def on_container_finished(
        self, callback: Callable[[Container], None]
    ) -> None:
        """Subscribe to container TERMINATED/FAILED transitions."""
        self._on_finished.append(callback)

    # ------------------------------------------------------------------
    # Task management
    # ------------------------------------------------------------------

    def submit_task(
        self,
        num_containers: int,
        gpus_per_container: int = 8,
        task_id: Optional[TaskId] = None,
        instant_startup: bool = False,
    ) -> TrainingTask:
        """Place and start a training task.

        Each container is placed on its own host (training nodes span a
        host's GPU complement).  Containers transition CREATING->RUNNING
        after a sampled startup delay; ``instant_startup`` collapses the
        delays for tests that don't exercise activation behaviour.
        """
        if task_id is None:
            task_id = TaskId(self._next_task_index)
            self._next_task_index += 1
        if task_id in self.tasks:
            raise PlacementError(f"{task_id} already submitted")
        hosts = self._pick_hosts(num_containers, gpus_per_container)
        task = TrainingTask(
            id=task_id,
            num_containers=num_containers,
            gpus_per_container=gpus_per_container,
        )
        task.vni = self.cluster.overlay.register_task(task_id)

        for rank, host_id in enumerate(hosts):
            cid = ContainerId(task_id, rank)
            allocation = self.cluster.host(host_id).allocate(
                cid, gpus_per_container
            )
            container = Container(id=cid, allocation=allocation)
            container.transition(ContainerState.CREATING, self.engine.now)
            task.containers[cid] = container
            delay = 0.0 if instant_startup else self.startup_model.sample(
                self._rng, rank, num_containers
            )
            self.engine.schedule_in(
                delay,
                lambda c=container: self._mark_running(c),
                label=f"start:{cid}",
            )

        self.tasks[task_id] = task
        return task

    def _schedulable(self, host_id: HostId) -> bool:
        return self.placement_filter is None or self.placement_filter(
            host_id
        )

    def _pick_hosts(
        self, num_containers: int, gpus_per_container: int
    ) -> List[HostId]:
        """First-fit placement: one container per host, distinct hosts —
        the lowest-id eligible hosts, so the scan stops at the n-th."""
        candidates: List[HostId] = []
        for h in self.cluster.hosts.values():
            if len(candidates) == num_containers:
                break
            if h.num_free_gpus >= gpus_per_container and self._schedulable(
                h.id
            ):
                candidates.append(h.id)
        if len(candidates) < num_containers:
            raise PlacementError(
                f"need {num_containers} hosts with {gpus_per_container} "
                f"free GPUs, only {len(candidates)} available"
            )
        return candidates

    def _mark_running(self, container: Container) -> None:
        if container.state != ContainerState.CREATING:
            return  # terminated or crashed before finishing startup
        container.transition(ContainerState.RUNNING, self.engine.now)
        self.cluster.overlay.attach_container(
            container, self.cluster.underlay_ips_of(container.host)
        )
        for callback in self._on_running:
            callback(container)

    def terminate_task(self, task_id: TaskId) -> None:
        """Tear down every container of ``task_id`` immediately."""
        task = self.tasks.get(task_id)
        if task is None:
            raise PlacementError(f"unknown task {task_id}")
        for container in task.all_containers():
            if container.is_terminal:
                continue
            self._finish(container, ContainerState.TERMINATED)

    def crash_container(self, container: Container) -> None:
        """Simulate a container-runtime crash (Table 1, issue 17)."""
        if container.is_terminal:
            return
        self._finish(container, ContainerState.FAILED)

    def _finish(self, container: Container, state: ContainerState) -> None:
        was_running = container.is_running
        container.transition(state, self.engine.now)
        if was_running:
            self.cluster.overlay.detach_container(container)
        self.cluster.host(container.host).release(container.allocation)
        for callback in self._on_finished:
            callback(container)

    def task(self, task_id: TaskId) -> TrainingTask:
        """The task object for ``task_id``."""
        if task_id not in self.tasks:
            raise PlacementError(f"unknown task {task_id}")
        return self.tasks[task_id]

    # ------------------------------------------------------------------
    # Live migration (§8 of the paper: quick recovery from failures)
    # ------------------------------------------------------------------

    def migrate_container(
        self,
        container: Container,
        exclude_hosts: Optional[List[HostId]] = None,
    ) -> HostId:
        """Move a RUNNING container to a different healthy host.

        Models the live-migration recovery path the paper's team was
        building: the container keeps its identity and endpoints while
        its GPUs, VFs, and overlay attachment move to a new host.
        """
        if not container.is_running:
            raise PlacementError(
                f"cannot migrate {container.id}: not RUNNING"
            )
        excluded = set(exclude_hosts or ())
        excluded.add(container.host)
        needed = len(container.allocation.gpu_indices)
        target = next(
            (
                h.id for h in self.cluster.hosts.values()
                if h.id not in excluded
                and h.num_free_gpus >= needed
                and self._schedulable(h.id)
            ),
            None,
        )
        if target is None:
            raise PlacementError(
                f"no healthy host available to migrate {container.id}"
            )
        self.cluster.overlay.detach_container(container)
        self.cluster.host(container.host).release(container.allocation)
        container.allocation = self.cluster.host(target).allocate(
            container.id, needed
        )
        self.cluster.overlay.attach_container(
            container, self.cluster.underlay_ips_of(target)
        )
        return target
