"""The pass-based fabric-verification framework.

SkeletonHunter's localization is only as sound as the invariants it
assumes about the fabric: rail-optimized wiring symmetry, ECMP path
equivalence, overlay/underlay flow-table agreement, and skeleton
coverage of every active endpoint pair (§5 of the paper).  Flock-style
fault localization depends on a faithful model of the network, and gray
failures hide exactly where such assumptions silently break — so this
module checks a constructed cluster *statically*, before a single probe
runs, instead of discovering model drift through flaky localization
results.

A :class:`VerificationPass` inspects one aspect of a
:class:`VerificationContext` (the cluster, plus optionally the running
SkeletonHunter and the training workload) and reports
:class:`Finding`\\ s — each naming the exact component, a severity, and
an evidence chain rendered in the same explainable style as
:meth:`repro.core.localization.Diagnosis.explain`.  The
:class:`FabricVerifier` runs a configurable list of passes and folds
their results into one :class:`VerifierReport`.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.orchestrator import Cluster
from repro.cluster.topology import RailOptimizedTopology

__all__ = [
    "FabricVerificationError",
    "FabricVerifier",
    "Finding",
    "PassResult",
    "Severity",
    "VerificationContext",
    "VerificationPass",
    "VerifierReport",
]


class Severity(enum.Enum):
    """How bad a finding is for localization soundness."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        """Numeric order for sorting (ERROR highest)."""
        return {"info": 0, "warning": 1, "error": 2}[self.value]


@dataclass(frozen=True)
class Finding:
    """One violated invariant, anchored to a concrete component.

    ``component`` uses the same naming scheme as
    :class:`~repro.core.localization.Diagnosis` (``host-3/rnic-2``,
    ``ovs:host-1``, ``tor-4``, ...), so a finding and a runtime
    diagnosis blaming the same device render identically.
    """

    check: str                    # the pass that raised it
    severity: Severity
    component: str
    explanation: str              # one-line verdict
    details: Tuple[str, ...] = ()  # the evidence chain

    def explain(self) -> str:
        """Render the evidence chain (Diagnosis.explain-style)."""
        lines = [
            f"finding: {self.component} [{self.severity.value}]",
            f"  check: {self.check}",
            f"  verdict: {self.explanation}",
        ]
        if self.details:
            lines.append("  evidence:")
            lines.extend(f"    {line}" for line in self.details)
        return "\n".join(lines)


@dataclass
class PassResult:
    """What one pass inspected and what it found."""

    name: str
    findings: List[Finding] = field(default_factory=list)
    checked: int = 0              # objects inspected (for reporting)
    skipped: bool = False
    reason: str = ""              # why the pass was skipped

    @property
    def ok(self) -> bool:
        """Whether the pass ran and found nothing."""
        return not self.skipped and not self.findings


@dataclass
class VerifierReport:
    """The merged outcome of every pass the verifier ran."""

    results: List[PassResult] = field(default_factory=list)

    @property
    def findings(self) -> List[Finding]:
        """All findings, most severe first (stable within severity)."""
        collected = [f for r in self.results for f in r.findings]
        return sorted(
            collected,
            key=lambda f: (-f.severity.rank, f.check, f.component),
        )

    def errors(self) -> List[Finding]:
        """Findings at ERROR severity."""
        return [f for f in self.findings if f.severity is Severity.ERROR]

    def warnings(self) -> List[Finding]:
        """Findings at WARNING severity."""
        return [f for f in self.findings if f.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """Whether the whole fabric verified clean (no findings at all)."""
        return not self.findings

    def components(self) -> List[str]:
        """Distinct blamed components, most severe first."""
        seen: List[str] = []
        for finding in self.findings:
            if finding.component not in seen:
                seen.append(finding.component)
        return seen

    def render(self) -> str:
        """The operator-readable report: summary plus evidence chains."""
        ran = [r for r in self.results if not r.skipped]
        skipped = [r for r in self.results if r.skipped]
        lines = [
            f"fabric verification: {len(ran)} passes, "
            f"{sum(r.checked for r in ran)} objects checked, "
            f"{len(self.findings)} finding(s)"
        ]
        for result in self.results:
            if result.skipped:
                lines.append(
                    f"  SKIP {result.name}: {result.reason}"
                )
            else:
                status = "ok  " if not result.findings else "FAIL"
                lines.append(
                    f"  {status} {result.name} "
                    f"({result.checked} checked, "
                    f"{len(result.findings)} finding(s))"
                )
        if skipped and not ran:
            lines.append("  (nothing ran)")
        for finding in self.findings:
            lines.append("")
            lines.append(finding.explain())
        return "\n".join(lines)


class FabricVerificationError(RuntimeError):
    """Raised when ``verify_on_start`` finds ERROR-severity findings."""

    def __init__(self, report: VerifierReport) -> None:
        self.report = report
        errors = report.errors()
        components = ", ".join(
            sorted({f.component for f in errors})
        )
        super().__init__(
            f"fabric verification failed: {len(errors)} error finding(s) "
            f"on {components}"
        )


@dataclass
class VerificationContext:
    """Everything a pass may inspect.

    Only ``cluster`` is mandatory; passes that need the monitoring stack
    (``hunter``) or the tenant workload (``workload``) skip themselves —
    with a recorded reason — when those are absent.  ``hunter`` is typed
    loosely to keep :mod:`repro.verify` import-free of
    :mod:`repro.core` (which imports this package for
    ``verify_on_start``).
    """

    cluster: Cluster
    hunter: Optional[Any] = None          # repro.core.system.SkeletonHunter
    workload: Optional[Any] = None        # repro.training.TrainingWorkload

    @property
    def topology(self) -> RailOptimizedTopology:
        """The cluster's physical topology."""
        return self.cluster.topology

    @classmethod
    def from_scenario(cls, scenario: Any) -> "VerificationContext":
        """Build a context from a :class:`MonitoredScenario`."""
        return cls(
            cluster=scenario.cluster,
            hunter=scenario.hunter,
            workload=getattr(scenario, "workload", None),
        )


class VerificationPass(abc.ABC):
    """One static check over a :class:`VerificationContext`."""

    #: Stable dotted name (``layer.invariant``), used in reports.
    name: str = "unnamed"

    @abc.abstractmethod
    def run(self, context: VerificationContext) -> PassResult:
        """Inspect the context and return findings."""

    # Helpers shared by the concrete passes -----------------------------

    def result(self) -> PassResult:
        """A fresh, empty result for this pass."""
        return PassResult(name=self.name)

    def skip(self, reason: str) -> PassResult:
        """A skipped result with a recorded reason."""
        return PassResult(name=self.name, skipped=True, reason=reason)

    def finding(
        self,
        result: PassResult,
        component: object,
        explanation: str,
        details: Iterable[str] = (),
        severity: Severity = Severity.ERROR,
    ) -> Finding:
        """Record one finding on ``result`` and return it."""
        found = Finding(
            check=self.name,
            severity=severity,
            component=str(component),
            explanation=explanation,
            details=tuple(details),
        )
        result.findings.append(found)
        return found


class FabricVerifier:
    """Runs a pass pipeline over a cluster and merges the results.

    With a :class:`~repro.obs.trace.TraceRecorder`, every finding is
    also emitted as a ``verify.finding`` trace event and counted under
    ``verify.findings``, so verification outcomes land on the same
    observability surface as runtime diagnoses.
    """

    def __init__(
        self,
        passes: Optional[Sequence[VerificationPass]] = None,
        recorder: Any = None,
    ) -> None:
        if passes is None:
            passes = default_passes()
        self.passes: List[VerificationPass] = list(passes)
        self.recorder = recorder

    def verify(self, context: VerificationContext) -> VerifierReport:
        """Run every pass and return the merged report."""
        report = VerifierReport()
        for verification_pass in self.passes:
            result = verification_pass.run(context)
            report.results.append(result)
            self._record(result)
        if self.recorder is not None:
            self.recorder.event(
                "verify.report",
                passes=len(report.results),
                findings=len(report.findings),
                errors=len(report.errors()),
                components=report.components(),
            )
        return report

    def _record(self, result: PassResult) -> None:
        if self.recorder is None:
            return
        for finding in result.findings:
            self.recorder.count("verify.findings")
            self.recorder.event(
                "verify.finding",
                check=finding.check,
                severity=finding.severity.value,
                component=finding.component,
                explanation=finding.explanation,
                details=list(finding.details),
            )


def default_passes() -> List[VerificationPass]:
    """The standard pipeline: topology, flow tables, overlay, skeleton."""
    from repro.verify.flowtable_passes import OffloadConsistencyPass
    from repro.verify.overlay_passes import (
        EndpointChainPass,
        VtepSymmetryPass,
    )
    from repro.verify.skeleton_passes import (
        ProbeTargetPass,
        SkeletonCoveragePass,
    )
    from repro.verify.topology_passes import (
        ConnectivityPass,
        EcmpEquivalencePass,
        RailWiringPass,
        SpineFanoutPass,
    )

    return [
        RailWiringPass(),
        SpineFanoutPass(),
        EcmpEquivalencePass(),
        ConnectivityPass(),
        OffloadConsistencyPass(),
        EndpointChainPass(),
        VtepSymmetryPass(),
        ProbeTargetPass(),
        SkeletonCoveragePass(),
    ]
