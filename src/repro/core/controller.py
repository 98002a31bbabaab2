"""The SkeletonHunter controller (§6 of the paper).

The controller owns per-task ping lists and drives the three ping-list
phases: it generates the *basic* (rail-pruned) list at task submission,
hands it to agents as containers come up, and — once the analyzer has
inferred a traffic skeleton — swaps in the skeleton-restricted list.

Crucially, activation is *not* the controller's job: containers register
themselves in the data plane (here: in the shared
:class:`~repro.core.pinglist.PingList` the agents hold), so the
controller never becomes the bottleneck during the thousands-per-minute
container churn of §3.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bus.core import Topic
from repro.cluster.container import Container, TrainingTask
from repro.cluster.identifiers import ContainerId, EndpointId, TaskId
from repro.cluster.orchestrator import Cluster
from repro.core.agent import OverlayAgent
from repro.core.pinglist import PingList
from repro.core.probing import ResilientProber
from repro.core.resilience import CircuitBreaker
from repro.core.skeleton import InferredSkeleton
from repro.obs.span import open_span

__all__ = ["Controller", "ControllerError"]


class ControllerError(RuntimeError):
    """Raised for invalid controller operations."""


@dataclass
class _TaskState:
    task: TrainingTask
    ping_list: PingList
    #: Live agents, kept in container order.
    agents: Dict[ContainerId, OverlayAgent] = field(default_factory=dict)
    skeleton: Optional[InferredSkeleton] = None


class Controller:
    """Generates ping lists and manages per-container agents."""

    def __init__(
        self,
        cluster: Cluster,
        recorder=None,
        chaos=None,
        bus=None,
    ) -> None:
        self.cluster = cluster
        # Optional AgentReleaseManager, assigned by the operator: new
        # sidecars launch on the latest published version (§8, agent
        # evolution).
        self.release_manager = None
        # Optional TraceRecorder: ping-list and agent lifecycle events.
        self.recorder = recorder
        # Optional MonitorFaultInjector: when set, every agent launches
        # with a ResilientProber (retry/backoff + circuit breaker); when
        # None, agents run the original direct path bit-identically.
        self.chaos = chaos
        # Optional TelemetryBus: agents publish probe-report batches
        # and breakers publish their state transitions onto it.
        self.bus = bus
        self._tasks: Dict[TaskId, _TaskState] = {}

    # ------------------------------------------------------------------
    # Phase 1: preload
    # ------------------------------------------------------------------

    def preload_task(self, task: TrainingTask) -> PingList:
        """Generate the basic (rail-pruned) ping list for a new task."""
        if task.id in self._tasks:
            raise ControllerError(f"{task.id} already preloaded")
        endpoints = task.endpoints()
        with open_span(self.recorder, "controller.preload"):
            ping_list = PingList.basic(endpoints, self._rail_of(task))
        self._tasks[task.id] = _TaskState(task=task, ping_list=ping_list)
        if self.recorder is not None:
            self.recorder.count("tasks.preloaded")
            self.recorder.event(
                "controller.preload", task=str(task.id),
                endpoints=len(endpoints), pairs=len(ping_list),
            )
        return ping_list

    def _rail_of(self, task: TrainingTask):
        def rail(endpoint: EndpointId) -> int:
            container = task.containers[endpoint.container]
            return container.rail_of(endpoint)

        return rail

    # ------------------------------------------------------------------
    # Phase 2: incremental activation via agent registration
    # ------------------------------------------------------------------

    def on_container_running(
        self, container: Container, now: float
    ) -> OverlayAgent:
        """Launch the sidecar agent for a container that just came up."""
        state = self._tasks.get(container.id.task)
        if state is None:
            raise ControllerError(
                f"{container.id.task} was never preloaded"
            )
        version = (
            self.release_manager.current_version(now)
            if self.release_manager is not None else "v1.0.0"
        )
        prober = None
        if self.chaos is not None:
            prober = ResilientProber(
                self.chaos,
                breaker=CircuitBreaker(
                    recorder=self.recorder,
                    listener=self._breaker_listener(container.id),
                ),
                recorder=self.recorder,
                bus=self.bus,
            )
        agent = OverlayAgent(
            container=container,
            ping_list=state.ping_list,
            started_at=now,
            version=version,
            prober=prober,
            bus=self.bus,
        )
        agents = state.agents
        last = next(reversed(agents), None)
        agents[container.id] = agent
        if last is not None and container.id < last:
            # Out of container order: sort again, in place.
            ordered = sorted(agents.items())
            agents.clear()
            agents.update(ordered)
        agent.register()
        if self.recorder is not None:
            self.recorder.count("agents.started")
            self.recorder.event(
                "controller.agent_started", sim_time=now,
                container=str(container.id), version=version,
            )
        return agent

    def _breaker_listener(self, container_id: ContainerId):
        """A breaker-transition callback publishing to the bus."""
        if self.bus is None:
            return None
        key = str(container_id)
        bus = self.bus

        def on_transition(now, old_state, new_state, breaker) -> None:
            bus.publish(
                Topic.BREAKERS,
                sim_time=now,
                kind="transition",
                container=key,
                from_state=old_state,
                to_state=new_state,
                snapshot=list(breaker.snapshot()),
            )

        return on_transition

    def on_container_finished(self, container: Container) -> None:
        """Tear down a container's agent and deactivate its targets."""
        state = self._tasks.get(container.id.task)
        if state is None:
            return
        state.ping_list.deregister(container.id)
        removed = state.agents.pop(container.id, None)
        if removed is not None and self.recorder is not None:
            self.recorder.count("agents.stopped")
            self.recorder.event(
                "controller.agent_stopped", container=str(container.id),
            )

    # ------------------------------------------------------------------
    # Phase 3: runtime skeleton optimization
    # ------------------------------------------------------------------

    def apply_skeleton(
        self, task_id: TaskId, skeleton: InferredSkeleton
    ) -> PingList:
        """Swap the task's ping list for the skeleton-restricted one.

        Endpoints the inference quarantined (series too gappy to place
        in a group) keep their current pairs: losing telemetry about an
        RNIC is no reason to stop probing it.
        """
        state = self._state(task_id)
        before = len(state.ping_list)
        with open_span(self.recorder, "controller.apply_skeleton"):
            edges = skeleton.edges
            if skeleton.quarantined:
                edges = edges | {
                    frozenset((pair.src, pair.dst))
                    for pair in state.ping_list.pairs_touching(
                        skeleton.quarantined
                    )
                }
            optimized = state.ping_list.restrict_to(edges)
        state.ping_list = optimized
        state.skeleton = skeleton
        for agent in state.agents.values():
            agent.ping_list = optimized
        if self.recorder is not None:
            self.recorder.count("skeletons.applied")
            self.recorder.event(
                "controller.skeleton_applied", task=str(task_id),
                pairs_before=before, pairs_after=len(optimized),
            )
        return optimized

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _state(self, task_id: TaskId) -> _TaskState:
        state = self._tasks.get(task_id)
        if state is None:
            raise ControllerError(f"unknown task {task_id}")
        return state

    def ping_list_of(self, task_id: TaskId) -> PingList:
        """The current ping list of ``task_id``."""
        return self._state(task_id).ping_list

    def skeleton_of(self, task_id: TaskId) -> Optional[InferredSkeleton]:
        """The applied skeleton, if phase 3 has run."""
        return self._state(task_id).skeleton

    def agents_of(self, task_id: TaskId) -> List[OverlayAgent]:
        """Live agents of ``task_id``, sorted by container (the order
        :meth:`on_container_running` keeps them in)."""
        return list(self._state(task_id).agents.values())

    def phase_of(self, task_id: TaskId) -> str:
        """Which ping-list phase ``task_id`` currently runs."""
        return self._state(task_id).ping_list.phase

    def monitored_tasks(self) -> List[TaskId]:
        """All tasks with a preloaded ping list."""
        return sorted(self._tasks)
