"""SkeletonHunter core: ping lists, inference, detection, localization."""

from repro.core.agent import AgentResourceModel, OverlayAgent
from repro.core.analyzer import Analyzer, FailureEvent
from repro.core.controller import Controller, ControllerError
from repro.core.detection import DetectedAnomaly, DetectorConfig
from repro.core.evaluation import (
    CampaignScore,
    CampaignScorer,
    FaultOutcome,
    fault_affects_pair,
)
from repro.core.fidelity import FidelityChecker, FidelityReport
from repro.core.handling import (
    Alert,
    AlertSeverity,
    Blacklist,
    FailureHandler,
)
from repro.core.localization import (
    Diagnosis,
    LocalizationReport,
    Localizer,
)
from repro.core.pinglist import PingList, PingListPhase, ProbePair
from repro.core.probing import (
    ProbeCostModel,
    estimate_round_duration,
    probes_per_round,
)
from repro.core.recovery import MigrationAction, RecoveryManager
from repro.core.rnic_validation import RnicFinding, RnicValidator
from repro.core.rollout import (
    AgentRelease,
    AgentReleaseManager,
    ReleaseChannel,
)
from repro.core.skeleton import InferredSkeleton, SkeletonInference
from repro.core.system import SkeletonHunter
from repro.core.tomography import IntersectionResult, PhysicalIntersection

__all__ = [
    "Alert",
    "AlertSeverity",
    "AgentRelease",
    "AgentReleaseManager",
    "AgentResourceModel",
    "Analyzer",
    "Blacklist",
    "CampaignScore",
    "CampaignScorer",
    "Controller",
    "ControllerError",
    "DetectedAnomaly",
    "DetectorConfig",
    "Diagnosis",
    "FailureEvent",
    "FailureHandler",
    "FaultOutcome",
    "FidelityChecker",
    "FidelityReport",
    "InferredSkeleton",
    "IntersectionResult",
    "LocalizationReport",
    "Localizer",
    "MigrationAction",
    "OverlayAgent",
    "PhysicalIntersection",
    "RecoveryManager",
    "ReleaseChannel",
    "PingList",
    "PingListPhase",
    "ProbeCostModel",
    "ProbePair",
    "RnicFinding",
    "RnicValidator",
    "SkeletonHunter",
    "SkeletonInference",
    "estimate_round_duration",
    "fault_affects_pair",
    "probes_per_round",
]
