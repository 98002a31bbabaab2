"""Failure handling: alerts, blacklisting, and scheduling integration.

§8 of the paper ("Handling Detected Failures"): when SkeletonHunter
detects an anomaly it (1) alerts the network operation team and (2)
automatically blacklists the implicated hosts and RNICs so no new
training task lands on them until the issue is resolved.  This module
implements both, plus the placement-filter hook the orchestrator uses.

Entries can carry an optional *scope* (e.g. a fleet tenant name): two
tenants blaming the same host name then hold two distinct entries, so
one tenant repairing "its" host never silently re-admits the host for
another tenant, and a shared registry can answer both scoped queries
(one tenant's view) and unscoped ones (the global placement view).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.identifiers import HostId, implicated_host
from repro.core.localization import Diagnosis, LocalizationReport

__all__ = ["Alert", "AlertSeverity", "Blacklist", "FailureHandler"]

#: Diagnoses at least this confident are blacklisted.
MIN_CONFIDENCE = 0.7


class AlertSeverity(enum.Enum):
    """How loudly to page the operation team."""

    CRITICAL = "critical"   # unconnectivity: training tasks will abort
    MAJOR = "major"         # packet loss: collective retries, slowdowns
    MINOR = "minor"         # high latency: degraded but progressing


@dataclass(frozen=True)
class Alert:
    """One notification sent to the network operation team."""

    raised_at: float
    severity: AlertSeverity
    component: str
    summary: str


@dataclass
class _BlacklistEntry:
    component: str
    since: float
    reason: str
    cleared_at: Optional[float] = None
    #: Provenance: entries added by one localization report share a
    #: group key, so repairing any of them can clear its derived
    #: siblings (a repaired RNIC un-blacklists the host entry the same
    #: report produced).
    group: Optional[str] = None
    #: Isolation scope (e.g. a fleet tenant name); ``None`` is the
    #: global scope.  Entries with different scopes never collide.
    scope: Optional[str] = None


class Blacklist:
    """Components excluded from new-task scheduling until repaired.

    ``scope`` (optional) namespaces every entry this instance writes —
    a fleet controller gives each tenant ``Blacklist(scope=name)`` so
    identical component strings from different tenants stay distinct
    even if the entries are later merged into one shared registry.
    Per-call ``scope=`` arguments override the instance default;
    queries with ``scope=None`` on an unscoped instance see entries in
    *every* scope (the conservative, global placement view).
    """

    def __init__(self, scope: Optional[str] = None) -> None:
        self.scope = scope
        self._entries: Dict[
            Tuple[Optional[str], str], _BlacklistEntry
        ] = {}

    def _effective_scope(
        self, scope: Optional[str]
    ) -> Optional[str]:
        return scope if scope is not None else self.scope

    def add(
        self,
        component: str,
        at: float,
        reason: str,
        group: Optional[str] = None,
        scope: Optional[str] = None,
    ) -> None:
        """Blacklist a component (idempotent while active in scope)."""
        scope = self._effective_scope(scope)
        key = (scope, component)
        current = self._entries.get(key)
        if current is not None and current.cleared_at is None:
            return
        self._entries[key] = _BlacklistEntry(
            component=component, since=at, reason=reason, group=group,
            scope=scope,
        )

    def clear(
        self,
        component: str,
        at: float,
        cascade: bool = False,
        scope: Optional[str] = None,
    ) -> bool:
        """Mark a component repaired; returns whether it was listed.

        Plain ``clear`` touches exactly one entry — an operator
        clearing ``host:h3`` does not silently re-admit the RNIC that
        incriminated it.  With ``cascade``, entries sharing the
        component's (non-``None``) provenance group *within the same
        scope* are cleared too: that is the
        :meth:`FailureHandler.mark_repaired` path, where fixing the
        diagnosed component also retires the host/OVS entries the same
        report derived from it.  A clear never crosses scopes — tenant
        A repairing ``host:h3`` leaves tenant B's ``host:h3`` listed.
        """
        scope = self._effective_scope(scope)
        entry = self._entries.get((scope, component))
        if entry is None or entry.cleared_at is not None:
            return False
        entry.cleared_at = at
        if cascade and entry.group is not None:
            for sibling in self._entries.values():
                if (
                    sibling.cleared_at is None
                    and sibling.group == entry.group
                    and sibling.scope == scope
                ):
                    sibling.cleared_at = at
        return True

    def contains(
        self, component: object, scope: Optional[str] = None
    ) -> bool:
        """Whether ``component`` is actively blacklisted.

        A scoped query (instance scope or explicit ``scope=``) sees
        only that scope's entries; an unscoped query sees every scope.
        """
        scope = self._effective_scope(scope)
        name = str(component)
        if scope is not None:
            entry = self._entries.get((scope, name))
            return entry is not None and entry.cleared_at is None
        return any(
            entry.cleared_at is None
            for (_, entry_name), entry in self._entries.items()
            if entry_name == name
        )

    def active(self, scope: Optional[str] = None) -> List[str]:
        """Actively blacklisted component names, sorted.

        Unscoped instances report the union across all scopes (names
        deduplicated); scoped queries list only their own entries.
        """
        scope = self._effective_scope(scope)
        names = {
            entry.component
            for entry in self._entries.values()
            if entry.cleared_at is None
            and (scope is None or entry.scope == scope)
        }
        return sorted(names)

    def active_entries(
        self,
    ) -> List[Tuple[Optional[str], str]]:
        """Every active ``(scope, component)`` row, sorted with the
        global (``None``) scope first."""
        return sorted(
            (
                key for key, entry in self._entries.items()
                if entry.cleared_at is None
            ),
            key=lambda key: (key[0] is not None, key[0] or "", key[1]),
        )

    def host_allowed(
        self, host: HostId, scope: Optional[str] = None
    ) -> bool:
        """Placement filter: is this host schedulable?

        A host is unschedulable when any blacklisted name implicates it
        (:func:`~repro.cluster.identifiers.implicated_host`; one dead
        rail starves the GPU it serves, so the whole node is pulled
        from rotation).  Unscoped queries are conservative — any
        tenant's entry pulls the host; scoped queries apply one
        tenant's view only.
        """
        name = str(host)
        return all(
            implicated_host(listed) != name
            for listed in self.active(scope=scope)
        )


class FailureHandler:
    """Turns localization reports into alerts and blacklist entries."""

    #: Diagnosis layers whose components are worth pulling from rotation.
    _BLACKLISTABLE_LAYERS = ("overlay", "underlay", "rnic", "host")

    def __init__(
        self,
        blacklist: Optional[Blacklist] = None,
        notify: Optional[Callable[[Alert], None]] = None,
    ) -> None:
        self.blacklist = blacklist or Blacklist()
        self._notify = notify
        self.alerts: List[Alert] = []

    def handle(self, at: float, report: LocalizationReport) -> List[Alert]:
        """Process one localization report: alert + blacklist.

        Entries from one report share a provenance group, so
        :meth:`mark_repaired` on any of them clears the others — a
        repaired RNIC does not leave its host blacklisted.
        """
        group = f"report@{at:.3f}"
        raised: List[Alert] = []
        for diagnosis in report.diagnoses:
            alert = Alert(
                raised_at=at,
                severity=self._severity_of(diagnosis),
                component=diagnosis.component,
                summary=f"{diagnosis.component}: {diagnosis.evidence}",
            )
            raised.append(alert)
            self.alerts.append(alert)
            if self._notify is not None:
                self._notify(alert)
            if (
                diagnosis.confidence >= MIN_CONFIDENCE
                and diagnosis.layer in self._BLACKLISTABLE_LAYERS
            ):
                self.blacklist.add(
                    diagnosis.component, at, diagnosis.evidence,
                    group=group,
                )
        return raised

    @staticmethod
    def _severity_of(diagnosis: Diagnosis) -> AlertSeverity:
        evidence = diagnosis.evidence.lower()
        if "unreachable" in evidence or "loop" in evidence or (
            "down" in evidence
        ):
            return AlertSeverity.CRITICAL
        if "loss" in evidence or "unconnectivity" in evidence:
            return AlertSeverity.MAJOR
        return AlertSeverity.MINOR

    def mark_repaired(self, component: str, at: float) -> bool:
        """The operation team fixed a component: re-admit it.

        Cascades through the entry's provenance group — blacklist
        entries derived from the same localization report (e.g. the
        ``host:`` entry raised alongside an RNIC diagnosis) are cleared
        with it, so a repaired RNIC never strands its host.
        """
        return self.blacklist.clear(component, at, cascade=True)

    def critical_alerts(self) -> List[Alert]:
        """All critical alerts raised so far."""
        return [
            a for a in self.alerts if a.severity == AlertSeverity.CRITICAL
        ]
