"""Operator-facing incident reporting.

Aggregates what the monitoring system did over a time range — failure
events, diagnoses, alerts, blacklist changes, migrations — into a
structured :class:`IncidentReport` and renders it as the kind of text
summary an on-call engineer reads.  This is the reproduction's analogue
of the paper's log-service dashboards (§6).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.localization import Diagnosis
from repro.core.system import SkeletonHunter

__all__ = ["IncidentReport", "build_report", "render_report"]


@dataclass(frozen=True)
class IncidentSummary:
    """One failure event condensed for the report."""

    pair: str
    symptom: str
    detected_at: float
    resolved_at: Optional[float]
    anomaly_count: int

    @property
    def duration_s(self) -> Optional[float]:
        """Incident lifetime, when it has resolved."""
        if self.resolved_at is None:
            return None
        return self.resolved_at - self.detected_at


@dataclass
class IncidentReport:
    """Everything that happened inside [start, end)."""

    start: float
    end: float
    incidents: List[IncidentSummary] = field(default_factory=list)
    diagnoses: List[Tuple[float, Diagnosis]] = field(default_factory=list)
    probes_sent: int = 0
    probes_lost: int = 0
    probe_rounds: int = 0
    monitored_pairs: int = 0
    # Whether probe counts cover exactly [start, end) (derived from the
    # per-round metrics series) or had to fall back to lifetime totals.
    probes_windowed: bool = False

    @property
    def open_incidents(self) -> int:
        """Incidents still unresolved at the report boundary."""
        return sum(1 for i in self.incidents if i.resolved_at is None)

    def symptom_breakdown(self) -> Counter:
        """Incident counts per symptom."""
        return Counter(i.symptom for i in self.incidents)

    def component_breakdown(self) -> Counter:
        """Diagnosis counts per blamed component."""
        return Counter(d.component for _, d in self.diagnoses)

    def mean_resolution_s(self) -> Optional[float]:
        """Average lifetime of resolved incidents."""
        durations = [
            i.duration_s for i in self.incidents
            if i.duration_s is not None
        ]
        if not durations:
            return None
        return sum(durations) / len(durations)


def build_report(
    hunter: SkeletonHunter,
    start: float = 0.0,
    end: Optional[float] = None,
) -> IncidentReport:
    """Collect a hunter's activity inside [start, end)."""
    horizon = end if end is not None else hunter.engine.now
    # The range is half-open, but ``end=None`` means "everything so
    # far": a probe round (or detection) that fired exactly at ``now``
    # belongs in that report, so the effective upper bound is nudged
    # past the boundary instant.
    upper = math.nextafter(horizon, math.inf) if end is None else horizon
    report = IncidentReport(start=start, end=horizon)
    for event in hunter.events:
        if not start <= event.first_detected_at < upper:
            continue
        report.incidents.append(IncidentSummary(
            pair=f"{event.pair.src} <-> {event.pair.dst}",
            symptom=event.symptom.value,
            detected_at=event.first_detected_at,
            resolved_at=event.resolved_at,
            anomaly_count=len(event.anomalies),
        ))
    for when, localization in hunter.reports:
        if not start <= when < upper:
            continue
        for diagnosis in localization.diagnoses:
            report.diagnoses.append((when, diagnosis))
    report.probes_sent, report.probes_lost, report.probes_windowed = (
        _probes_in_range(hunter, start, upper)
    )
    registry = hunter.metrics
    if registry.has_series("probes.sent_in_round"):
        # Count-only query: no need to slice the per-round values.
        report.probe_rounds = registry.series(
            "probes.sent_in_round"
        ).count_window(start, upper)
    report.monitored_pairs = len(hunter.monitored_pairs())
    return report


def _probes_in_range(
    hunter: SkeletonHunter, start: float, end: float
) -> Tuple[int, int, bool]:
    """Probe sent/lost counts for [start, end).

    Summed from the per-round metrics series the hunter records, so a
    windowed report counts only its own range; falls back to lifetime
    fabric totals before the first round has recorded the series.
    """
    registry = hunter.metrics
    if not registry.has_series("probes.sent_in_round"):
        return hunter.fabric.probes_sent, hunter.fabric.probes_lost, False
    sent = registry.series("probes.sent_in_round").window(start, end)
    lost = registry.series("probes.lost_in_round").window(start, end)
    return int(sum(sent)), int(sum(lost)), True


def render_report(report: IncidentReport) -> str:
    """Render an incident report as operator-readable text."""
    scope = "in range" if report.probes_windowed else "lifetime"
    lines = [
        f"incident report [{report.start:.0f}s .. {report.end:.0f}s]",
        f"  monitored pairs: {report.monitored_pairs}, "
        f"probes sent: {report.probes_sent} "
        f"(lost {report.probes_lost}, {scope}, "
        f"{report.probe_rounds} rounds in range)",
        f"  incidents: {len(report.incidents)} "
        f"({report.open_incidents} still open)",
    ]
    breakdown = report.symptom_breakdown()
    if breakdown:
        parts = ", ".join(
            f"{symptom}: {count}"
            for symptom, count in sorted(breakdown.items())
        )
        lines.append(f"  by symptom: {parts}")
    mean_resolution = report.mean_resolution_s()
    if mean_resolution is not None:
        lines.append(
            f"  mean incident lifetime: {mean_resolution:.0f}s"
        )
    if report.incidents:
        lines.append("  timeline:")
        for incident in sorted(
            report.incidents, key=lambda i: i.detected_at
        ):
            status = (
                "open" if incident.resolved_at is None
                else f"resolved @{incident.resolved_at:.0f}s"
            )
            lines.append(
                f"    {incident.detected_at:>7.0f}s  "
                f"{incident.symptom:<15} {incident.pair}  [{status}]"
            )
    components = report.component_breakdown()
    if components:
        evidence: dict = {}
        for _, diagnosis in report.diagnoses:
            evidence.setdefault(diagnosis.component, diagnosis.evidence)
        lines.append("  blamed components:")
        for component, count in components.most_common():
            why = evidence.get(component, "")
            lines.append(
                f"    {component} (x{count})"
                + (f" -- {why}" if why else "")
            )
    if not report.incidents:
        lines.append("  network healthy: no incidents in range")
    return "\n".join(lines)
