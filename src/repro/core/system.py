"""The SkeletonHunter facade: controller + agents + analyzer + localizer.

Wires every component onto one simulation clock:

* task submission triggers ping-list **preload**;
* container RUNNING transitions launch sidecar agents that **register**
  themselves, incrementally activating probe targets;
* a periodic probing loop has every agent probe its active targets and
  feed the analyzer;
* throughput observations can be fed in to run **skeleton inference** and
  shrink the ping list;
* newly opened failure events are **localized** within the same round,
  and each (time, report) is retained for evaluation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.bus.codec import encode_event, encode_pairs, encode_verdict
from repro.bus.core import Topic
from repro.cluster.container import Container, TrainingTask
from repro.cluster.identifiers import EndpointId, TaskId
from repro.cluster.orchestrator import Cluster, Orchestrator
from repro.core.analyzer import Analyzer, FailureEvent
from repro.core.controller import Controller
from repro.core.detection import DetectorConfig
from repro.core.localization import (
    LocalizationReport,
    Localizer,
    localize_open_events,
)
from repro.core.pinglist import ProbePair
from repro.core.probing import run_probe_round
from repro.core.skeleton import (
    InferredSkeleton,
    SkeletonInference,
    SkeletonInferenceError,
)
from repro.network.fabric import DataPlaneFabric
from repro.obs.trace import TraceRecorder
from repro.sim.engine import PeriodicTask, SimulationEngine
from repro.sim.metrics import MetricRegistry

__all__ = ["SkeletonHunter"]


class SkeletonHunter:
    """The end-to-end monitoring and diagnosis system."""

    def __init__(
        self,
        cluster: Cluster,
        engine: SimulationEngine,
        fabric: DataPlaneFabric,
        orchestrator: Orchestrator,
        detector_config: Optional[DetectorConfig] = None,
        probe_interval_s: float = 2.0,
        observability: Optional[TraceRecorder] = None,
        chaos=None,
        bus=None,
    ) -> None:
        self.cluster = cluster
        self.engine = engine
        self.fabric = fabric
        self.orchestrator = orchestrator
        self.probe_interval_s = probe_interval_s
        # Observability (§6 log-service dashboards): one shared recorder
        # threaded through every pipeline stage.  When absent, components
        # skip all emission; the fabric's registry backs the probe
        # counters and per-round series either way.
        self.obs = observability
        # Optional monitor-plane chaos (repro.chaos): when set, agents
        # run hardened (retry/backoff + breakers), telemetry is
        # corrupted per the schedule, and flow-table reads can fail.
        # None keeps every path bit-identical to the unhardened plane.
        self.chaos = chaos
        # Optional TelemetryBus (repro.bus): every pipeline stage
        # publishes onto it — probe batches (agents), breaker
        # transitions (controller), round summaries / events / verdicts
        # / ping-list snapshots (here) — which is what the JSONL
        # recorder persists and the replayer reconstructs runs from.
        self.bus = bus
        self.controller = Controller(
            cluster, recorder=observability, chaos=chaos, bus=bus,
        )
        self.analyzer = Analyzer(
            detector_config, recorder=observability
        )
        self.localizer = Localizer(
            cluster, fabric, recorder=observability, chaos=chaos
        )
        self.inference = SkeletonInference(recorder=observability)
        # Optional operational integrations (§8), assigned by the
        # operator after construction: alerting/blacklisting and
        # migration-based recovery react to each new report.
        self.handler = None
        self.recovery = None
        self.reports: List[Tuple[float, LocalizationReport]] = []
        self._watched: Set[TaskId] = set()
        self._localized_events: Set[Tuple[ProbePair, float]] = set()
        self._published_pairs: Optional[List[ProbePair]] = None
        self._probe_task: Optional[PeriodicTask] = None

        orchestrator.on_container_running(self._on_container_running)
        orchestrator.on_container_finished(self._on_container_finished)

    @property
    def metrics(self) -> MetricRegistry:
        """The run's metric registry: the fabric's, which an observed
        scenario's recorder shares."""
        return self.fabric.metrics

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def watch_task(self, task: TrainingTask) -> None:
        """Preload the basic ping list and begin monitoring ``task``."""
        self.controller.preload_task(task)
        self._watched.add(task.id)
        # Containers that came up before the watch started still need
        # their agents.
        for container in task.running_containers():
            self.controller.on_container_running(container, self.engine.now)

    def start(self, first_round_at: Optional[float] = None) -> None:
        """Arm the periodic probing loop on the simulation clock."""
        if self._probe_task is not None and not self._probe_task.stopped:
            return
        self._probe_task = self.engine.schedule_periodic(
            self.probe_interval_s,
            self._probe_round,
            first_at=(
                self.engine.now + self.probe_interval_s
                if first_round_at is None else first_round_at
            ),
            label="skeletonhunter-probe-round",
        )

    def stop(self) -> None:
        """Disarm the probing loop."""
        if self._probe_task is not None:
            self._probe_task.stop()

    def _on_container_running(self, container: Container) -> None:
        if container.id.task not in self._watched:
            return
        self.controller.on_container_running(container, self.engine.now)

    def _on_container_finished(self, container: Container) -> None:
        if container.id.task not in self._watched:
            return
        # Crashed containers must stay in the ping list: their silence is
        # the unconnectivity signal; only graceful exits deregister.
        from repro.cluster.container import ContainerState

        if container.state == ContainerState.TERMINATED:
            self.controller.on_container_finished(container)

    # ------------------------------------------------------------------
    # Probing loop
    # ------------------------------------------------------------------

    def _probe_round(self) -> None:
        now = self.engine.now
        if self.obs is not None:
            with self.obs.span("probe_round", sim_time=now) as span:
                sent, lost, anomalies, opened = self._run_round(now)
                span.set(
                    probes_sent=sent, probes_lost=lost,
                    anomalies=anomalies, events_opened=opened,
                )
            self.obs.event(
                "round.complete", sim_time=now, probes_sent=sent,
                probes_lost=lost, anomalies=anomalies,
                events_opened=opened,
                open_events=len(self.analyzer.open_events()),
            )
        else:
            self._run_round(now)

    def _run_round(self, now: float) -> Tuple[int, int, int, int]:
        """One probing round; returns this round's (sent, lost,
        anomalies, events-opened) deltas."""
        sent0 = self.fabric.probes_sent
        lost0 = self.fabric.probes_lost
        anomalies0 = len(self.analyzer.anomalies)
        opened0 = len(self.analyzer.events)
        run_probe_round(
            [
                agent
                for task_id in self.controller.monitored_tasks()
                for agent in self.controller.agents_of(task_id)
            ],
            self.fabric, now, now + self.probe_interval_s,
            self.analyzer.ingest_batch,
        )
        self.analyzer.flush(now)
        self._localize_new_events(now)
        sent = self.fabric.probes_sent - sent0
        lost = self.fabric.probes_lost - lost0
        # The per-round series back windowed reporting (probes sent in a
        # [start, end) range), so they are recorded even when tracing is
        # off: one append per round is negligible next to the probes
        # themselves.
        registry = self.metrics
        registry.series("probes.sent_in_round").record(now, sent)
        registry.series("probes.lost_in_round").record(now, lost)
        anomalies = len(self.analyzer.anomalies) - anomalies0
        opened = len(self.analyzer.events) - opened0
        if self.bus is not None:
            # Published last within the round: the replayer flushes its
            # analyzer and localizes on this record, after every probe
            # batch, snapshot, and verdict of the round precedes it.
            self.bus.publish(
                Topic.ROUND,
                sim_time=now,
                sent=sent,
                lost=lost,
                anomalies=anomalies,
                events_opened=opened,
                open_events=len(self.analyzer.open_events()),
            )
        return (sent, lost, anomalies, opened)

    def _localize_new_events(self, now: float) -> None:
        _, report = localize_open_events(
            self.localizer, self.analyzer.open_events(),
            self._localized_events,
            lambda fresh: self._localization_inputs(now, fresh), now,
        )
        if report is None:
            return
        self.reports.append((now, report))
        if self.bus is not None:
            self.bus.publish(
                Topic.VERDICTS, sim_time=now,
                **encode_verdict(now, report),
            )
        if self.handler is not None:
            self.handler.handle(now, report)
        if self.recovery is not None:
            for action in self.recovery.react(now, report):
                if not action.succeeded:
                    continue
                # The migration changed the container's data paths: its
                # pairs' baselines are stale by construction.
                container = self._find_container(action.container)
                if container is not None:
                    self.analyzer.reset_pairs_involving(
                        container.endpoints(), now
                    )

    def _localization_inputs(
        self, now: float, fresh: List[FailureEvent]
    ) -> List[ProbePair]:
        """Every active pair; on a bus, published with the fresh events
        before the localization that consumes them runs.

        The ping-list snapshot (published only when the active set
        changed) and the fresh events precede the verdict on the bus,
        so a replayer reading records in sequence order has both in
        hand when it re-localizes.
        """
        all_pairs: List[ProbePair] = []
        for task_id in self.controller.monitored_tasks():
            all_pairs.extend(
                self.controller.ping_list_of(task_id).active_pairs()
            )
        if self.bus is None:
            return all_pairs
        if self._published_pairs != all_pairs:
            self._published_pairs = list(all_pairs)
            self.bus.publish(
                Topic.PINGLIST,
                sim_time=now,
                pairs=encode_pairs(all_pairs),
            )
        for event in fresh:
            self.bus.publish(
                Topic.EVENTS, sim_time=now,
                **encode_event(
                    event.pair, event.first_detected_at, event.symptom
                ),
            )
        return all_pairs

    def _find_container(self, container_id):
        task = self.orchestrator.tasks.get(container_id.task)
        if task is None:
            return None
        return task.containers.get(container_id)

    # ------------------------------------------------------------------
    # Skeleton optimization
    # ------------------------------------------------------------------

    def observe_and_optimize(
        self,
        task_id: TaskId,
        series_by_endpoint: Dict[EndpointId, np.ndarray],
        observed_at: float = 0.0,
    ) -> Optional[InferredSkeleton]:
        """Infer the traffic skeleton and shrink the task's ping list.

        ``series_by_endpoint`` is what the agents' throughput sampling
        collected (in the simulator, generated by the training-traffic
        substrate); ``observed_at`` is the simulated time of its first
        sample (only meaningful under chaos, which corrupts samples by
        their timestamps).  When inference cannot run on the degraded
        telemetry, the plane keeps the current ping list and returns
        ``None`` — a worse list beats a crashed monitor.
        """
        task = self.orchestrator.task(task_id)

        def host_of(endpoint: EndpointId):
            return task.containers[endpoint.container].host

        if self.chaos is not None:
            series_by_endpoint = self.chaos.corrupt_series(
                series_by_endpoint, at=observed_at
            )
        if self.bus is not None:
            self.bus.publish(
                Topic.RNIC_SERIES,
                sim_time=observed_at,
                task=str(task_id),
                series=[
                    [str(ep), int(np.asarray(values).size),
                     float(np.nansum(np.asarray(values, dtype=float)))]
                    for ep, values in sorted(
                        series_by_endpoint.items(),
                        key=lambda item: item[0],
                    )
                ],
            )
        try:
            skeleton = self.inference.infer(series_by_endpoint, host_of)
        except SkeletonInferenceError as error:
            if self.obs is not None:
                self.obs.count("skeleton.inference_failed")
                self.obs.event(
                    "skeleton.inference_failed", reason=str(error)
                )
            if self.bus is not None:
                self.bus.publish(
                    Topic.SKELETON,
                    sim_time=observed_at,
                    task=str(task_id),
                    applied=False,
                    reason=str(error),
                )
            return None
        self.controller.apply_skeleton(task_id, skeleton)
        if self.bus is not None:
            self.bus.publish(
                Topic.SKELETON,
                sim_time=observed_at,
                task=str(task_id),
                applied=True,
                edges=len(skeleton.edges),
                quarantined=len(skeleton.quarantined),
            )
            if skeleton.quarantined:
                self.bus.publish(
                    Topic.QUARANTINE,
                    sim_time=observed_at,
                    task=str(task_id),
                    endpoints=sorted(
                        str(ep) for ep in skeleton.quarantined
                    ),
                )
        return skeleton

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    @property
    def events(self) -> List[FailureEvent]:
        """All failure events raised so far."""
        return self.analyzer.events

    def monitored_pairs(self) -> List[ProbePair]:
        """Every pair the analyzer has seen probes for."""
        return self.analyzer.monitored_pairs()
