"""The shard coordinator: heartbeats and merged localization.

The chunk loop, the kill schedule and failover are the plane driver's
(:mod:`repro.shard.plane`, shared with the fleet plane).  The
coordinator adds what is particular to splitting *one job's pairs*:

* **One world to start from.** Its reference replica is the spec's
  warm replica (:func:`~repro.shard.spec.build_warm_replica`), handed
  to the backend's ``spawn`` before anything steps it: a forked worker
  runs on it, every other worker builds the same world.

* **Heartbeats.** Each :class:`~repro.shard.monitor.ChunkResult`
  doubles as the shard's heartbeat and lands in the metric registry
  under ``shard.<i>.*``.

* **Orphan placement.** A dead shard's pairs are dealt round-robin, in
  pair order, to the survivors.

* **Merged localization.** Underlay tomography needs votes from *all*
  failing paths, which sharding scatters.  Each worker reports, per
  round, the events it opened and those it resolved; the coordinator
  merges them (taking what a failover replay re-reports once, by key)
  into the plane's open events and, after every round, runs the one
  localization step
  (:meth:`~repro.core.localization.Localizer.localize_open`, on the
  one localizer it builds per run, which remembers what it localized)
  on its own reference replica stepped to that round: when an event
  is fresh, every open event votes, against every pair no open event
  implicates.
  The localizer traces each failing pair's route itself (the same
  route the reporting worker's replica would: placement and flow hash
  are seed-determined).  A verdict is therefore what one monitor
  owning every pair would say at that round, whatever the chunking,
  shard count or failover history.

The equivalence gate (:mod:`repro.shard.equivalence`) holds the whole
construction to its invariant: same seed, same events, same verdicts —
independent of shard count, backend, and failovers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.bus.codec import encode_event, encode_verdict
from repro.bus.core import Topic
from repro.core.analyzer import FailureEvent
from repro.core.localization import LocalizationReport, Localizer
from repro.core.pinglist import pair_order
from repro.shard.backend import InProcessBackend
from repro.shard.monitor import (
    ChunkResult,
    EventKey,
    EventRecord,
    RoundEvents,
)
from repro.shard.partition import PartitionPlan, TopologyPartitioner
from repro.shard.plane import PlaneDriver, Reassignment, WorkerStatus
from repro.shard.spec import (
    FaultScheduleRunner,
    ShardScenarioSpec,
    build_warm_replica,
)
from repro.sim.metrics import MetricRegistry

__all__ = [
    "ShardCoordinator",
    "ShardRunResult",
    "ShardStatus",
]


@dataclass
class ShardStatus(WorkerStatus):
    """The coordinator's live view of one shard (``units`` are its
    probe pairs)."""

    agent_count: int = 0
    last_sim_time: float = 0.0
    #: Latest per-agent circuit-breaker snapshots reported by the shard
    #: (chaos runs only): container id -> (state, consecutive_failures,
    #: opened_at, trips, recoveries).  After failover the adopter's
    #: replayed snapshots land here, so the coordinator's view of an
    #: adopted agent's breaker is the replay-exact one.
    breakers: Dict[str, tuple] = field(default_factory=dict)


def _breaker_rows(statuses: Dict[int, ShardStatus]) -> List[tuple]:
    """Every live shard's breaker snapshots as sorted rows."""
    return [
        (shard_id, agent_key) + status.breakers[agent_key]
        for shard_id, status in sorted(statuses.items()) if status.alive
        for agent_key in sorted(status.breakers)
    ]


@dataclass
class ShardRunResult:
    """Everything a sharded run produced, in comparison-ready form."""

    spec: ShardScenarioSpec
    num_shards: int
    backend: str
    events: List[EventRecord]
    verdicts: List[Tuple[float, LocalizationReport]]
    statuses: Dict[int, ShardStatus]
    reassignments: List[Reassignment]
    metrics: MetricRegistry
    plan: PartitionPlan

    def event_keys(self) -> Set[EventKey]:
        """The identity set of every opened failure event."""
        return {record.key for record in self.events}

    def breaker_summary(self) -> List[tuple]:
        """Comparable breaker rows from every *live* shard: sorted
        ``(shard_id, container_id, state, consecutive_failures,
        opened_at, trips, recoveries)``.  Dead shards are excluded —
        their last snapshots are stale by definition; the adopters'
        replayed snapshots carry the authoritative state."""
        return _breaker_rows(self.statuses)

    def event_summary(self) -> List[Tuple[str, str, float, str]]:
        """Sorted (src, dst, detected-at, symptom) rows."""
        return sorted(
            (
                str(r.src), str(r.dst),
                r.first_detected_at, r.symptom,
            )
            for r in self.events
        )

    def verdict_summary(
        self,
    ) -> List[Tuple[float, Tuple[Tuple[str, str, str, float], ...], int]]:
        """Comparable verdicts: per localization batch, its time, the
        ordered (component, class, layer, confidence) diagnoses, and
        the unexplained-event count."""
        return [
            (at, *report.verdict_row()) for at, report in self.verdicts
        ]

    def comparable(self) -> Dict[str, List[tuple]]:
        """Everything that must match across shard counts, backends
        and failover histories, as named row streams."""
        return {
            "events": self.event_summary(),
            "verdicts": self.verdict_summary(),
        }


class ShardCoordinator(PlaneDriver[ShardStatus]):
    """Drives N shard monitors to the spec's horizon, merging results."""

    scope = "shard"

    def __init__(
        self,
        spec: ShardScenarioSpec,
        num_shards: int,
        backend=None,
        chunk_rounds: int = 5,
        recorder=None,
        kill_schedule: Optional[Dict[int, int]] = None,
        bus=None,
    ) -> None:
        super().__init__(
            spec, num_shards, chunk_rounds, kill_schedule, recorder
        )
        self.backend = backend if backend is not None else (
            InProcessBackend()
        )
        # Telemetry bus: per-shard streams are published here from the
        # merge step only — results are folded in sorted shard-id
        # order, so the bus sees one deterministic interleaving no
        # matter how the backend scheduled the workers.
        self.bus = bus

        # The reference replica backs merged localization: Algorithm 1
        # reads overlay tables, RNIC flow tables, and underlay routes,
        # so the coordinator keeps one replica stepped round by round
        # via the same replayable fault schedule the shards use.  It is
        # the world every worker starts from (every pair resolved at
        # t = 0), and until the workers are spawned nothing steps or
        # changes it: a forked worker takes it over as its own.
        self.reference, self.all_pairs = build_warm_replica(spec)
        self._reference_schedule = FaultScheduleRunner(
            self.reference.injector, spec,
            self.reference.task.containers.get,
        )
        self.localizer = Localizer(
            self.reference.cluster,
            self.reference.fabric,
            recorder=recorder,
        )

        partitioner = TopologyPartitioner(self.reference.cluster)
        self.plan = partitioner.partition(self.all_pairs, num_shards)
        for shard_id in range(num_shards):
            pairs = self.plan.pairs_of(shard_id)
            self._add_worker(
                self.backend.spawn(shard_id, spec, pairs, self.reference),
                ShardStatus(worker_id=shard_id, units=pairs),
            )

        self.events: List[EventRecord] = []
        self.verdicts: List[Tuple[float, LocalizationReport]] = []
        #: The plane's open events, in the order they opened.
        self._open: Dict[EventKey, FailureEvent] = {}

    def run(self) -> ShardRunResult:
        """Execute all rounds chunk by chunk; returns the merged run."""
        self._drive()
        return ShardRunResult(
            spec=self.spec,
            num_shards=self.num_workers,
            backend=getattr(self.backend, "name", "inproc"),
            events=list(self.events),
            verdicts=list(self.verdicts),
            statuses=self.statuses,
            reassignments=list(self.reassignments),
            metrics=self.metrics,
            plan=self.plan,
        )

    def _place_orphans(
        self, orphaned: tuple, survivors: List[int]
    ) -> Dict[int, list]:
        """Round-robin over the survivors, in pair order."""
        placed: Dict[int, list] = {}
        for index, pair in enumerate(sorted(orphaned, key=pair_order)):
            placed.setdefault(
                survivors[index % len(survivors)], []
            ).append(pair)
        return placed

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------

    def _merge_chunk(
        self, chunk: int, start: int, end: int, results: list
    ) -> None:
        by_round = self._merge_results(results)
        self._publish_chunk(chunk, end)
        # Rounds before ``start`` are a failover replay's: merged
        # already, from the worker that died.
        for round_index in range(start, end + 1):
            self._merge_round(by_round.get(round_index, []))
            self._reference_schedule.advance_to(round_index)
            self._localize(self.spec.round_time(round_index))

    def _merge_results(
        self, results: List[ChunkResult]
    ) -> Dict[int, List[RoundEvents]]:
        by_round: Dict[int, List[RoundEvents]] = {}
        for result in sorted(results, key=lambda r: r.shard_id):
            status = self.statuses[result.shard_id]
            status.agent_count = result.agent_count
            status.last_sim_time = max(
                status.last_sim_time, result.sim_time
            )
            for row in result.breaker_states:
                status.breakers[row[0]] = tuple(row[1:])
            scope = f"shard.{result.shard_id}"
            self.metrics.increment("shard.heartbeats")
            self.metrics.increment(
                f"{scope}.probes.sent", result.probes_sent
            )
            self.metrics.increment(
                f"{scope}.probes.lost", result.probes_lost
            )
            self.metrics.series(f"{scope}.heartbeat").record(
                result.sim_time, result.end_round
            )
            # Merged (plane-wide) counters keep their unprefixed names.
            self.metrics.increment("probes.sent", result.probes_sent)
            self.metrics.increment("probes.lost", result.probes_lost)
            for entry in result.rounds:
                by_round.setdefault(entry.round_index, []).append(entry)
        return by_round

    def _merge_round(self, entries: List[RoundEvents]) -> None:
        """Fold one round's reports into the plane's open events.  After
        a death found mid-chunk an adopter reports its own pairs twice,
        in its chunk and in its replay, so each event counts once."""
        opened = {
            record.key: record
            for entry in entries for record in entry.opened
        }
        for record in sorted(
            opened.values(), key=lambda r: (r.first_detected_at, r.pair)
        ):
            self.metrics.increment("events.opened")
            self.events.append(record)
            self._open[record.key] = record.to_failure_event()
        for entry in entries:
            for key in entry.resolved:
                self._open.pop(key, None)

    def _publish_chunk(self, chunk: int, end_round: int) -> None:
        """Publish the post-merge shard-health and breaker views."""
        if self.bus is None:
            return
        at = self.spec.round_time(end_round)
        self.bus.publish(
            Topic.SHARD_HEALTH,
            sim_time=at,
            chunk=chunk,
            round=end_round,
            shards=[
                {
                    "id": shard_id,
                    "alive": status.alive,
                    "pairs": len(status.units),
                    "agents": status.agent_count,
                    "chunks": status.chunks_completed,
                    "last_round": status.last_round,
                    "adopted": status.adopted,
                }
                for shard_id, status in sorted(self.statuses.items())
            ],
        )
        rows = [list(row) for row in _breaker_rows(self.statuses)]
        if rows:
            self.bus.publish(
                Topic.BREAKERS,
                sim_time=at,
                kind="snapshot",
                chunk=chunk,
                rows=rows,
            )

    # ------------------------------------------------------------------
    # Merged localization
    # ------------------------------------------------------------------

    def _localize(self, now: float) -> None:
        fresh, report = self.localizer.localize_open(
            list(self._open.values()), lambda fresh: self.all_pairs, now,
        )
        if report is None:
            return
        self.verdicts.append((now, report))
        if self.bus is not None:
            for event in fresh:
                self.bus.publish(
                    Topic.EVENTS, sim_time=now,
                    **encode_event(
                        event.pair, event.first_detected_at, event.symptom
                    ),
                )
            self.bus.publish(
                Topic.VERDICTS, sim_time=now,
                **encode_verdict(now, report),
            )
        self.metrics.increment("diagnoses.made", len(report.diagnoses))
