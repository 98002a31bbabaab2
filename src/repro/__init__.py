"""SkeletonHunter reproduction: diagnosing and localizing network failures
in containerized large model training (SIGCOMM 2025).

The package is organized bottom-up:

* :mod:`repro.sim` — discrete-event engine, seeded RNGs, metrics;
* :mod:`repro.cluster` — rail-optimized topology, hosts/RNICs/VFs,
  containers, orchestration, and the VXLAN overlay with OVS/RNIC flow
  tables;
* :mod:`repro.network` — probe packets, latency model, the Table-1 fault
  catalogue and injector, and the data-plane fabric;
* :mod:`repro.training` — TP/PP/DP/EP parallelism, collective traffic
  patterns, and burst-cycle throughput generation;
* :mod:`repro.analysis` — STFT features, LOF, constrained clustering,
  log-normal statistics;
* :mod:`repro.core` — SkeletonHunter itself: phased ping lists, traffic
  skeleton inference, anomaly detection, Algorithm-1 localization, and
  the :class:`~repro.core.system.SkeletonHunter` facade;
* :mod:`repro.bus` — durable telemetry bus with JSONL record/replay
  (``python -m repro record / replay / tail``);
* :mod:`repro.verify` — static fabric-verification passes and the
  determinism lint (``python -m repro.verify [--lint]``);
* :mod:`repro.baselines` — Pingmesh, deTector, and R-Pingmesh baselines;
* :mod:`repro.workloads` — production-statistics models and one-call
  monitored scenarios.

Quickstart::

    from repro import build_scenario, IssueType

    scenario = build_scenario(num_containers=8, gpus_per_container=8)
    scenario.run_for(120)                       # warm detection baselines
    scenario.apply_skeleton()                   # infer + shrink ping list
    outcome = scenario.run_fault(IssueType.RNIC_PORT_DOWN)
    print(outcome.detected, outcome.localized_component)
"""

from repro.cluster import (
    Cluster,
    Container,
    ContainerId,
    ContainerState,
    EndpointId,
    HostId,
    LinkId,
    Orchestrator,
    RailOptimizedTopology,
    RnicId,
    SwitchId,
    TaskId,
    TrainingTask,
)
from repro.core import (
    Analyzer,
    CampaignScore,
    CampaignScorer,
    Controller,
    DetectorConfig,
    Diagnosis,
    FailureEvent,
    InferredSkeleton,
    LocalizationReport,
    Localizer,
    PingList,
    ProbePair,
    SkeletonHunter,
    SkeletonInference,
    estimate_round_duration,
)
from repro.network import (
    DataPlaneFabric,
    Fault,
    FaultInjector,
    IssueType,
    LatencyModel,
    ProbeResult,
    Symptom,
    TransientCongestion,
)
from repro.bus import (
    JsonlRecorder,
    Recording,
    TailDashboard,
    TelemetryBus,
    Topic,
    load_recording,
)
from repro.obs import (
    Span,
    TraceEvent,
    TraceRecorder,
    explain_diagnosis,
    explain_report,
    to_jsonl,
    to_prometheus,
    write_jsonl,
)
from repro.sim import MetricRegistry, RngRegistry, SimulationEngine, TimeSeries
from repro.verify import (
    FabricVerificationError,
    FabricVerifier,
    Finding,
    VerificationContext,
    VerifierReport,
)
from repro.training import (
    ParallelismConfig,
    TrafficGenerator,
    TrainingWorkload,
    traffic_edges,
    traffic_matrix,
)
from repro.workloads import (
    MonitoredScenario,
    ProductionStatistics,
    build_scenario,
)

__version__ = "1.0.0"

__all__ = [
    "Analyzer",
    "CampaignScore",
    "CampaignScorer",
    "Cluster",
    "Container",
    "ContainerId",
    "ContainerState",
    "Controller",
    "DataPlaneFabric",
    "DetectorConfig",
    "Diagnosis",
    "EndpointId",
    "FabricVerificationError",
    "FabricVerifier",
    "FailureEvent",
    "Fault",
    "FaultInjector",
    "Finding",
    "HostId",
    "InferredSkeleton",
    "IssueType",
    "JsonlRecorder",
    "LatencyModel",
    "LinkId",
    "LocalizationReport",
    "Localizer",
    "MetricRegistry",
    "MonitoredScenario",
    "Orchestrator",
    "ParallelismConfig",
    "PingList",
    "ProbePair",
    "ProbeResult",
    "ProductionStatistics",
    "RailOptimizedTopology",
    "Recording",
    "RngRegistry",
    "RnicId",
    "SimulationEngine",
    "SkeletonHunter",
    "SkeletonInference",
    "Span",
    "SwitchId",
    "Symptom",
    "TailDashboard",
    "TaskId",
    "TelemetryBus",
    "TimeSeries",
    "Topic",
    "TraceEvent",
    "TraceRecorder",
    "TrafficGenerator",
    "TrainingTask",
    "TrainingWorkload",
    "TransientCongestion",
    "VerificationContext",
    "VerifierReport",
    "build_scenario",
    "estimate_round_duration",
    "load_recording",
    "explain_diagnosis",
    "explain_report",
    "to_jsonl",
    "to_prometheus",
    "traffic_edges",
    "traffic_matrix",
    "write_jsonl",
    "__version__",
]
