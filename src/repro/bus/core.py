"""In-process telemetry bus: typed topics over bounded ring buffers.

The bus is the seam between the monitor plane (agents, probers,
breakers, chaos injectors, shard coordinator) and everything that wants
to observe it (the JSONL recorder, the live ``repro tail`` dashboard,
tests).  Publishers stamp each record with the simulated time and a
global monotone sequence number; subscribers receive records in
publication order, which — because the whole simulation is
deterministic — is itself deterministic for a given seed.

The interface is deliberately small (publish / subscribe / history) so
a real broker could replace the in-process implementation later without
touching the publishers.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

__all__ = ["TelemetryBus", "Topic"]


class Topic:
    """Well-known bus topics.

    Topics are plain strings so recordings stay readable and unknown
    (future) topics can flow through old readers; the constants exist so
    publishers and subscribers cannot drift apart silently.
    """

    #: Per-agent batches of delivered probe reports (one record/round).
    PROBE_REPORTS = "probe.reports"
    #: End-of-round analyzer summary; replay flushes on this record.
    ROUND = "round.summary"
    #: Per-endpoint RNIC counter series summaries at skeleton time.
    RNIC_SERIES = "rnic.series"
    #: Fault/chaos ground truth (network and monitor planes).
    GROUND_TRUTH = "chaos.ground_truth"
    #: Circuit-breaker state transitions and snapshots.
    BREAKERS = "breaker.transitions"
    #: Localization verdicts (diagnoses + unexplained count).
    VERDICTS = "localize.verdicts"
    #: Newly opened detection events.
    EVENTS = "detect.events"
    #: Active ping-list snapshots (published when the set changes).
    PINGLIST = "pinglist.snapshot"
    #: Skeleton inference outcomes (applied / failed / quarantine).
    SKELETON = "skeleton.applied"
    #: Endpoint quarantine decisions from series corruption.
    QUARANTINE = "skeleton.quarantine"
    #: Monitor-plane degradation (report retries/failures per round).
    MONITOR = "monitor.plane"
    #: Per-chunk shard liveness/ownership from the coordinator.
    SHARD_HEALTH = "shard.health"
    #: Per-round fleet rollups (admitted tenants, budget utilization).
    FLEET = "fleet.rollup"

    ALL: Tuple[str, ...] = (
        PROBE_REPORTS, ROUND, RNIC_SERIES, GROUND_TRUTH, BREAKERS,
        VERDICTS, EVENTS, PINGLIST, SKELETON, QUARANTINE, MONITOR,
        SHARD_HEALTH, FLEET,
    )


Subscriber = Callable[[Dict[str, Any]], None]


class TelemetryBus:
    """Bounded ring-buffer publish/subscribe bus on the sim clock.

    Each topic keeps the most recent ``history`` records (mirroring
    :class:`repro.sim.metrics.TimeSeries` bounded retention); overflow
    is counted in :attr:`dropped`, never raised.  Subscribers are
    invoked synchronously in subscription order during :meth:`publish`
    — there is no wall-clock anywhere, so a recorded stream from an
    identically seeded run is byte-identical.
    """

    def __init__(self, history: int = 512):
        if history < 1:
            raise ValueError("history must be at least 1")
        self.history_limit = history
        self.published = 0
        self.dropped = 0
        self._seq = 0
        self._buffers: Dict[str, Deque[Dict[str, Any]]] = {}
        # Rebuilt, never mutated: a dispatch walks the tuple it began
        # with, so a subscriber that (un)subscribes mid-dispatch changes
        # only the next publish.
        self._subscribers: Tuple[Tuple[Optional[str], Subscriber], ...] = ()

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------

    def publish(
        self, topic: str, sim_time: float = 0.0, **data: Any
    ) -> Dict[str, Any]:
        """Publish ``data`` on ``topic`` at simulated time ``sim_time``.

        Returns the stamped record: ``{"seq", "topic", "sim_time",
        "data"}``.  The sequence number is global (across topics) and
        strictly increasing, so a merged recording totally orders every
        plane's telemetry.
        """
        self._seq += 1
        record: Dict[str, Any] = {
            "seq": self._seq,
            "topic": topic,
            "sim_time": float(sim_time),
            "data": data,
        }
        buffer = self._buffers.get(topic)
        if buffer is None:
            buffer = deque(maxlen=self.history_limit)
            self._buffers[topic] = buffer
        if len(buffer) == self.history_limit:
            self.dropped += 1
        buffer.append(record)
        self.published += 1
        for wanted, subscriber in self._subscribers:
            if wanted is None or wanted == topic:
                subscriber(record)
        return record

    # ------------------------------------------------------------------
    # Subscribing
    # ------------------------------------------------------------------

    def subscribe(
        self, subscriber: Subscriber, topic: Optional[str] = None
    ) -> Subscriber:
        """Call ``subscriber(record)`` on every publish.

        ``topic=None`` subscribes to every topic (what the recorder
        uses).  Returns ``subscriber`` so it can be handed straight to
        :meth:`unsubscribe`.
        """
        self._subscribers += ((topic, subscriber),)
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Remove every subscription registered for ``subscriber``.

        Compared by equality, not identity: each attribute access on
        ``obj.method`` builds a fresh bound-method object, so identity
        would never match the registration.
        """
        self._subscribers = tuple(
            (topic, existing) for topic, existing in self._subscribers
            if existing != subscriber
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def history(self, topic: str) -> List[Dict[str, Any]]:
        """Retained records for ``topic``, oldest first."""
        return list(self._buffers.get(topic, ()))

    def latest(self, topic: str) -> Optional[Dict[str, Any]]:
        """The most recent record on ``topic``, or ``None``."""
        buffer = self._buffers.get(topic)
        if not buffer:
            return None
        return buffer[-1]

    def topics(self) -> List[str]:
        """Sorted names of every topic that has seen a publish."""
        return sorted(self._buffers)

    def counts(self) -> Dict[str, int]:
        """Retained record count per topic (ring-buffer occupancy)."""
        return {
            topic: len(buffer) for topic, buffer in self._buffers.items()
        }
