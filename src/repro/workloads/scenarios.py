"""Canned end-to-end scenarios: one call builds a monitored cluster.

A :class:`MonitoredScenario` bundles the full stack — topology, hosts,
overlay, fault injector, data-plane fabric, training workload, traffic
generator, and a running SkeletonHunter — on one simulation clock.
Examples, tests, and benchmarks all build on it so every experiment
exercises the same code paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.bus.codec import encode_fault
from repro.bus.core import Topic
from repro.cluster.container import TrainingTask
from repro.cluster.identifiers import ContainerId, EndpointId
from repro.cluster.orchestrator import Cluster, Orchestrator
from repro.cluster.topology import RailOptimizedTopology
from repro.core.detection import DetectorConfig
from repro.core.evaluation import CampaignScore, CampaignScorer, FaultOutcome
from repro.core.skeleton import InferredSkeleton
from repro.core.system import SkeletonHunter
from repro.network.fabric import DataPlaneFabric
from repro.network.faults import Fault, FaultInjector
from repro.network.issues import IssueType, spec_of
from repro.network.latency import LatencyModel, TransientCongestion
from repro.obs.trace import TraceRecorder
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RngRegistry
from repro.training.parallelism import ParallelismConfig
from repro.training.traffic import TrafficGenerator, TrafficModel
from repro.training.workload import TrainingWorkload

__all__ = [
    "MonitoredScenario",
    "build_scenario",
    "standard_fault_target",
]


@dataclass
class MonitoredScenario:
    """Everything an experiment needs, pre-wired on one clock."""

    topology: RailOptimizedTopology
    cluster: Cluster
    engine: SimulationEngine
    rng: RngRegistry
    orchestrator: Orchestrator
    injector: FaultInjector
    fabric: DataPlaneFabric
    hunter: SkeletonHunter
    task: TrainingTask
    workload: TrainingWorkload
    generator: TrafficGenerator
    observability: Optional[TraceRecorder] = None
    #: Monitor-plane fault injector (repro.chaos), when the scenario
    #: runs under chaos; None means a perfect monitor.
    chaos: Optional[object] = None
    #: Telemetry bus (repro.bus), when the scenario publishes its
    #: pipeline onto one; None keeps all publication paths inert.
    bus: Optional[object] = None

    # ------------------------------------------------------------------
    # Convenience operations
    # ------------------------------------------------------------------

    def run_for(self, duration_s: float) -> None:
        """Advance the simulation by ``duration_s`` seconds."""
        self.engine.run_until(self.engine.now + duration_s)

    def inject(self, issue: IssueType, target, **overrides) -> Fault:
        """Inject an issue now (parameters from the Table-1 catalogue)."""
        return self.injector.inject_issue(
            issue, target, start=self.engine.now, **overrides
        )

    def clear(self, fault: Fault) -> None:
        """End a fault now and revert its side effects."""
        self.injector.clear(fault, self.engine.now)

    def run_fault(
        self,
        issue: IssueType,
        target=None,
        fault_s: float = 120.0,
        cool_s: float = 40.0,
        **overrides,
    ) -> FaultOutcome:
        """The campaign leg: inject, run, clear, cool down, score it.

        ``issue`` lands on ``target`` (default: the scenario's
        :func:`standard_fault_target`) with the catalogue's parameters
        under ``overrides``, stays active for ``fault_s`` simulated
        seconds and is followed by ``cool_s`` fault-free ones; the
        returned outcome scores that one fault, whatever else the
        scenario has injected.
        """
        if target is None:
            target = standard_fault_target(self, issue)
        fault = self.inject(issue, target, **overrides)
        self.run_for(fault_s)
        self.clear(fault)
        self.run_for(cool_s)
        return self.score([fault])[1][0]

    def apply_skeleton(
        self, observation_s: float = 600.0
    ) -> Optional[InferredSkeleton]:
        """Collect throughput series and apply the inferred skeleton.

        Under chaos the series pass through the monitor-fault schedule
        first (sample 0 is stamped at the current simulated time); a
        telemetry outage bad enough to defeat inference keeps the
        current ping list and returns ``None``.
        """
        series = self.generator.all_series(observation_s)
        return self.hunter.observe_and_optimize(
            self.task.id, series, observed_at=self.engine.now
        )

    def score(
        self, faults: Optional[List[Fault]] = None
    ) -> Tuple[CampaignScore, List[FaultOutcome]]:
        """Score detection/localization against the injected faults."""
        scorer = CampaignScorer(self.cluster, self.fabric)
        return scorer.score(
            faults if faults is not None else self.injector.all_faults(),
            self.hunter.events,
            self.hunter.reports,
            self.hunter.monitored_pairs(),
        )

    def endpoint_of_rank(self, rank: int) -> EndpointId:
        """The endpoint hosting global training rank ``rank``."""
        return self.workload.endpoint_of(rank)

    def rnic_of_rank(self, rank: int):
        """The physical RNIC under global training rank ``rank``."""
        return self.cluster.overlay.rnic_of(self.endpoint_of_rank(rank))


def standard_fault_target(scenario: MonitoredScenario, issue):
    """The canonical injection target for ``issue`` in this scenario.

    One shared resolution — :meth:`MonitoredScenario.run_fault`'s
    default, hence what every CLI verb, gate and Table-1 campaign
    injects at — so "inject issue X" always hits the same kind of
    component for the same scenario and seed.  Dispatch is
    catalog-driven via :func:`~repro.network.issues.spec_of`'s
    ``target_kind``, so new families (including the gray catalog) get a
    target without per-issue branches here.
    """
    kind = spec_of(issue).target_kind
    rnic = scenario.rnic_of_rank(scenario.workload.gpus_per_container)
    if kind == "link":
        pair = scenario.hunter.monitored_pairs()[0]
        return scenario.fabric.traceroute(pair.src, pair.dst).links[1]
    if kind == "switch":
        return scenario.topology.tor_of(rnic)
    if kind == "container":
        return scenario.task.containers[
            ContainerId(scenario.task.id, 1)
        ]
    if kind == "host":
        return rnic.host
    return rnic


def build_scenario(
    num_containers: int = 8,
    gpus_per_container: int = 8,
    tp: Optional[int] = None,
    pp: int = 2,
    ep: int = 1,
    seed: int = 0,
    probe_interval_s: float = 2.0,
    num_spines: int = 4,
    hosts_per_segment: int = 8,
    ecmp_mode: str = "static",
    detector_config: Optional[DetectorConfig] = None,
    congestion: Optional[TransientCongestion] = None,
    latency_model: Optional[LatencyModel] = None,
    instant_startup: bool = True,
    start_monitoring: bool = True,
    watch: bool = True,
    iteration_period_s: float = 30.0,
    observe: bool = False,
    chaos=None,
    bus=None,
) -> MonitoredScenario:
    """Build a monitored training task end to end.

    The parallelism defaults to ``TP = gpus_per_container`` (the standard
    intra-node tensor parallelism) with ``DP`` derived so that
    ``TP x PP x DP`` exactly covers the task's GPUs.
    """
    if tp is None:
        tp = gpus_per_container
    total_gpus = num_containers * gpus_per_container
    if total_gpus % (tp * pp) != 0:
        raise ValueError(
            f"tp*pp={tp * pp} must divide the task's {total_gpus} GPUs"
        )
    dp = total_gpus // (tp * pp)
    config = ParallelismConfig(tp=tp, pp=pp, dp=dp, ep=ep)

    topology = RailOptimizedTopology(
        num_segments=max(2, math.ceil(num_containers / hosts_per_segment)),
        hosts_per_segment=hosts_per_segment,
        rails_per_host=gpus_per_container,
        num_spines=num_spines,
    )
    cluster = Cluster(topology)
    engine = SimulationEngine()
    rng = RngRegistry(seed)
    orchestrator = Orchestrator(cluster, engine, rng)
    injector = FaultInjector(cluster)
    if bus is not None:
        injector.add_observer(_ground_truth_publisher(bus))
        if chaos is not None and hasattr(chaos, "attach_bus"):
            chaos.attach_bus(bus)
    observability = TraceRecorder() if observe else None
    fabric = DataPlaneFabric(
        cluster, injector, rng,
        latency_model=latency_model, congestion=congestion,
        metrics=observability.metrics if observability else None,
        ecmp_mode=ecmp_mode,
    )
    hunter = SkeletonHunter(
        cluster, engine, fabric, orchestrator,
        detector_config=detector_config,
        probe_interval_s=probe_interval_s,
        observability=observability,
        chaos=chaos,
        bus=bus,
    )

    task = orchestrator.submit_task(
        num_containers, gpus_per_container, instant_startup=instant_startup
    )
    # ``watch=False`` skips the basic ping-list preload entirely: shard
    # replicas (repro.shard) bring their own pair set and at production
    # scale the unused basic list would dominate the replica's memory.
    if watch:
        hunter.watch_task(task)
        if start_monitoring:
            hunter.start()
    if instant_startup:
        engine.run_until(engine.now)  # flush the instant RUNNING events

    workload = TrainingWorkload(
        task, config, iteration_period_s=iteration_period_s
    )
    generator = TrafficGenerator(
        workload,
        model=TrafficModel(iteration_period_s=iteration_period_s),
        rng=rng,
    )
    return MonitoredScenario(
        topology=topology, cluster=cluster, engine=engine, rng=rng,
        orchestrator=orchestrator, injector=injector, fabric=fabric,
        hunter=hunter, task=task, workload=workload, generator=generator,
        observability=observability, chaos=chaos, bus=bus,
    )


def _ground_truth_publisher(bus):
    """A fault-injector observer publishing network ground truth.

    Inject/clear records for one fault share its id, which the injector
    allocates run-locally: two same-seed recordings agree byte-wise.
    """

    def publish(action: str, fault: Fault, at: float) -> None:
        bus.publish(
            Topic.GROUND_TRUTH,
            sim_time=at,
            plane="network",
            action=action,
            fault=encode_fault(fault),
        )

    return publish
