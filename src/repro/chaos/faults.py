"""Seeded, schedulable faults against the monitoring pipeline itself.

PRs 1–4 assumed the monitor is perfect: every RNIC throughput sample
arrives, every probe answer returns, every agent stays alive.  This
module drops that assumption.  A :class:`MonitorFaultInjector` owns a
schedule of :class:`MonitorFault` instances — the monitor-plane
catalogue below — and answers *pure, keyed* queries from the hardened
pipeline: every decision ("was this report lost?", "is this agent
hung?") is a deterministic function of ``(seed, fault, subject, time,
attempt)`` via :func:`repro.network.draws.keyed_uniform`, never of call
order.  That keeps chaos runs reproducible and lets shard replicas
replay identical monitor-plane weather after a failover.

Catalogue (the monitor-plane dual of Table 1):

=======================  ==============================================
``TELEMETRY_DROP``       per-RNIC throughput samples go missing (gaps)
``TELEMETRY_STALE``      samples repeat the last value (stuck counter)
``TELEMETRY_NAN``        samples arrive as NaN (corrupt export)
``PROBE_REPORT_LOSS``    the probe ran but its report never came back
``PROBE_LATE_REPLY``     the report arrives after the reply timeout
``AGENT_CRASH``          the sidecar agent is dead (no probes at all)
``AGENT_HANG``           the agent is alive but wedged (no probes)
``AGENT_SLOW_START``     the agent probes only a coarse subset while
                         warming up after (re)start
``FLOW_TABLE_READ_ERROR``  ``ovs-appctl``-style dump fails during RNIC
                         validation
=======================  ==============================================

Each fault carries ground truth (``culprits``) so the degradation gate
can score what the monitor *should* have been able to see despite it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np

from repro.bus.core import Topic
from repro.cluster.identifiers import EndpointId, RnicId
from repro.network.draws import keyed_uniform, keyed_uniforms

__all__ = [
    "MonitorFault",
    "MonitorFaultInjector",
    "MonitorIssue",
]


class MonitorIssue(enum.Enum):
    """The monitor-plane failure catalogue."""

    TELEMETRY_DROP = "telemetry_drop"
    TELEMETRY_STALE = "telemetry_stale"
    TELEMETRY_NAN = "telemetry_nan"
    PROBE_REPORT_LOSS = "probe_report_loss"
    PROBE_LATE_REPLY = "probe_late_reply"
    AGENT_CRASH = "agent_crash"
    AGENT_HANG = "agent_hang"
    AGENT_SLOW_START = "agent_slow_start"
    FLOW_TABLE_READ_ERROR = "flow_table_read_error"


#: Canonical parameters per issue, overridable at injection.
_DEFAULT_RATE: Dict[MonitorIssue, float] = {
    MonitorIssue.TELEMETRY_DROP: 0.10,
    MonitorIssue.TELEMETRY_STALE: 0.10,
    MonitorIssue.TELEMETRY_NAN: 0.05,
    MonitorIssue.PROBE_REPORT_LOSS: 0.10,
    MonitorIssue.PROBE_LATE_REPLY: 0.10,
    MonitorIssue.AGENT_CRASH: 1.0,
    MonitorIssue.AGENT_HANG: 1.0,
    MonitorIssue.AGENT_SLOW_START: 1.0,
    MonitorIssue.FLOW_TABLE_READ_ERROR: 0.5,
}

_DEFAULT_DELAY: Dict[MonitorIssue, float] = {
    MonitorIssue.PROBE_LATE_REPLY: 0.8,
    MonitorIssue.AGENT_SLOW_START: 30.0,
}

@dataclass
class MonitorFault:
    """One scheduled monitor-plane failure.

    ``scope`` narrows the blast radius: ``None`` hits every subject of
    the issue's kind; otherwise a subject key matches when it equals the
    scope or starts with it (so ``"t0/c3"`` scopes an agent fault to one
    container, and ``"t0/c3/g1"`` to one endpoint).
    """

    issue: MonitorIssue
    start: float
    end: Optional[float] = None
    #: Probability a subject/sample is hit while the fault is active.
    rate: float = 1.0
    scope: Optional[str] = None
    #: Issue-specific duration: reply lateness for ``PROBE_LATE_REPLY``,
    #: warm-up length for ``AGENT_SLOW_START``.
    delay_s: float = 0.0
    culprits: Set[str] = field(default_factory=set)
    #: Assigned by the injector at :meth:`MonitorFaultInjector.inject`
    #: when left ``None``.  Ids key every fate draw, so they must be
    #: run-local (a process-global counter here would make two
    #: same-seed injectors draw different fates — and two same-seed
    #: recordings differ byte-wise).  Pin explicitly to make replicas
    #: built elsewhere agree (cf. ``shard.spec.build_monitor_chaos``).
    fault_id: Optional[int] = None

    def active_at(self, t: float) -> bool:
        """Whether the fault exists at time ``t``."""
        return t >= self.start and (self.end is None or t < self.end)

    def matches(self, key: str) -> bool:
        """Whether subject ``key`` falls inside this fault's scope."""
        return (
            self.scope is None
            or key == self.scope
            or key.startswith(self.scope)
        )

    def describe(self) -> str:
        scope = self.scope or "*"
        return (
            f"{self.issue.value}(scope={scope}, rate={self.rate:g}, "
            f"start={self.start:g}, end={self.end})"
        )


class MonitorFaultInjector:
    """Owns the monitor-fault schedule and answers pipeline queries.

    All queries are pure in ``(seed, schedule, arguments)`` — two
    injectors with the same seed and schedule give identical answers in
    any process, at any call order.  Injection itself has no side
    effects on the simulated cluster (the monitor, not the network, is
    what misbehaves), so replicas can re-inject the schedule freely.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._faults: Dict[int, MonitorFault] = {}
        self._next_fault_id = 0
        self._bus = None

    # ------------------------------------------------------------------
    # Schedule management
    # ------------------------------------------------------------------

    def attach_bus(self, bus) -> None:
        """Publish this schedule (and future injects) as ground truth.

        Already-injected faults are published immediately so a recorder
        attached after schedule construction still captures the full
        monitor-plane weather.  Attaching the same bus twice is a
        no-op.
        """
        if bus is self._bus:
            return
        self._bus = bus
        for fault in self.all_faults():
            self._publish(fault)

    def _publish(self, fault: MonitorFault) -> None:
        if self._bus is None:
            return
        self._bus.publish(
            Topic.GROUND_TRUTH,
            sim_time=fault.start,
            plane="monitor",
            action="inject",
            fault={
                "issue": fault.issue.name,
                "start": fault.start,
                "end": fault.end,
                "rate": fault.rate,
                "scope": fault.scope,
                "delay_s": fault.delay_s,
                "culprits": sorted(fault.culprits),
                "fault_id": fault.fault_id,
            },
        )

    def inject(self, fault: MonitorFault) -> MonitorFault:
        """Register a fault (no cluster side effects).

        An unpinned fault gets the next run-local id: two same-seed
        injectors fed the same schedule assign the same ids and hence
        draw identical fates, whatever else ran in the process.
        """
        if fault.fault_id is None:
            while self._next_fault_id in self._faults:
                self._next_fault_id += 1
            fault.fault_id = self._next_fault_id
            self._next_fault_id += 1
        if not fault.culprits:
            fault.culprits = {_culprit(fault)}
        self._faults[fault.fault_id] = fault
        self._publish(fault)
        return fault

    def inject_issue(
        self,
        issue: MonitorIssue,
        start: float,
        end: Optional[float] = None,
        scope: Optional[str] = None,
        **overrides,
    ) -> MonitorFault:
        """Inject ``issue`` with canonical parameters (cf. the network
        injector's :meth:`~repro.network.faults.FaultInjector.inject_issue`)."""
        fault = MonitorFault(
            issue=issue,
            start=start,
            end=end,
            scope=scope,
            rate=_DEFAULT_RATE[issue],
            delay_s=_DEFAULT_DELAY.get(issue, 0.0),
        )
        for key, value in overrides.items():
            setattr(fault, key, value)
        return self.inject(fault)

    def clear(self, fault: MonitorFault, at: float) -> None:
        """End a fault at time ``at``."""
        fault.end = at

    def active_faults(self, t: float) -> List[MonitorFault]:
        """All monitor faults active at ``t``, in injection order."""
        return [
            self._faults[k]
            for k in sorted(self._faults)
            if self._faults[k].active_at(t)
        ]

    def all_faults(self) -> List[MonitorFault]:
        """Every fault ever injected, in injection order."""
        return [self._faults[k] for k in sorted(self._faults)]

    def ground_truth(self, t: float) -> Set[str]:
        """Union of culprits of monitor faults active at ``t``."""
        names: Set[str] = set()
        for fault in self.active_faults(t):
            names |= fault.culprits
        return names

    # ------------------------------------------------------------------
    # Pipeline-facing queries (all pure keyed draws)
    # ------------------------------------------------------------------

    def probe_report(
        self,
        src: EndpointId,
        dst: EndpointId,
        at: float,
        attempt: int = 0,
    ) -> str:
        """Fate of one probe's *report*: ``"ok"``, ``"lost"``, ``"late"``.

        Retries pass increasing ``attempt`` so each gets a fresh draw —
        a report lost on attempt 0 may well arrive on attempt 1, which
        is exactly what bounded retry exploits.
        """
        key = f"{src}->{dst}"
        for fault in self._report_faults(at):
            if not fault.matches(key):
                continue
            u = keyed_uniform(
                self.seed,
                f"report:{fault.fault_id}:{key}@{at!r}",
                salt=attempt,
            )
            if u < fault.rate:
                if fault.issue is MonitorIssue.PROBE_REPORT_LOSS:
                    return "lost"
                return "late"
        return "ok"

    def _report_faults(self, at: float) -> List[MonitorFault]:
        return [
            f
            for f in self.active_faults(at)
            if f.issue
            in (
                MonitorIssue.PROBE_REPORT_LOSS,
                MonitorIssue.PROBE_LATE_REPLY,
            )
        ]

    def agent_state(self, agent_key: str, at: float) -> str:
        """Agent health at ``at``: ``"ok"``/``"crashed"``/``"hung"``/``"slow"``.

        ``agent_key`` is the container id string.  Crash wins over hang
        wins over slow-start; slow-start covers ``delay_s`` simulated
        seconds from the fault's start (the warm-up window).
        """
        state = "ok"
        for fault in self.active_faults(at):
            if fault.issue is MonitorIssue.AGENT_CRASH and fault.matches(
                agent_key
            ):
                return "crashed"
            if fault.issue is MonitorIssue.AGENT_HANG and fault.matches(
                agent_key
            ):
                state = "hung"
            elif (
                fault.issue is MonitorIssue.AGENT_SLOW_START
                and fault.matches(agent_key)
                and at < fault.start + fault.delay_s
                and state == "ok"
            ):
                state = "slow"
        return state

    def corrupt_series(
        self,
        series_by_endpoint: Dict[EndpointId, np.ndarray],
        at: float = 0.0,
    ) -> Dict[EndpointId, np.ndarray]:
        """Apply active telemetry faults to per-RNIC throughput series.

        ``at`` is the simulated time of sample 0; series are 1 Hz, so
        sample *i* exists at ``at + i`` and a fault corrupts exactly the
        samples inside its active window.  Dropped and NaN samples both
        surface as NaN (the ingestion side cannot tell a missing export
        from a corrupt one); stale samples repeat the last value.
        Returns a new dict — untouched series are passed through by
        reference, so the clean path allocates nothing.
        """
        telemetry = [
            f
            for f in self.all_faults()
            if f.issue
            in (
                MonitorIssue.TELEMETRY_DROP,
                MonitorIssue.TELEMETRY_STALE,
                MonitorIssue.TELEMETRY_NAN,
            )
        ]
        if not telemetry:
            return dict(series_by_endpoint)
        out: Dict[EndpointId, np.ndarray] = {}
        for endpoint in sorted(series_by_endpoint):
            data = series_by_endpoint[endpoint]
            key = str(endpoint)
            corrupted = None
            times = None
            for fault in telemetry:
                if not fault.matches(key):
                    continue
                if times is None:
                    times = at + np.arange(len(data), dtype=np.float64)
                overlaps = fault.start <= times[-1] and (
                    fault.end is None or fault.end > times[0]
                )
                if not overlaps:
                    continue
                if corrupted is None:
                    corrupted = np.asarray(data, dtype=np.float64).copy()
                active = times >= fault.start
                if fault.end is not None:
                    active &= times < fault.end
                draws = keyed_uniforms(
                    self.seed,
                    f"telemetry:{fault.fault_id}:{key}@{at!r}",
                    len(data),
                )
                hit = active & (draws < fault.rate)
                if fault.issue is MonitorIssue.TELEMETRY_STALE:
                    idx = np.flatnonzero(hit)
                    for i in idx:
                        corrupted[i] = corrupted[i - 1] if i > 0 else 0.0
                else:
                    corrupted[hit] = np.nan
            out[endpoint] = data if corrupted is None else corrupted
        return out

    def flow_table_read_fails(
        self, rnic: RnicId, at: float, attempt: int = 0
    ) -> bool:
        """Whether a flow-table dump for ``rnic`` errors at ``at``."""
        key = str(rnic)
        for fault in self.active_faults(at):
            if fault.issue is not MonitorIssue.FLOW_TABLE_READ_ERROR:
                continue
            if not fault.matches(key):
                continue
            u = keyed_uniform(
                self.seed,
                f"flowread:{fault.fault_id}:{key}@{at!r}",
                salt=attempt,
            )
            if u < fault.rate:
                return True
        return False


def _culprit(fault: MonitorFault) -> str:
    scope = fault.scope or "*"
    return f"monitor:{fault.issue.value}:{scope}"
