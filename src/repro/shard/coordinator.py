"""The shard coordinator: heartbeats and merged localization.

The chunk loop, the kill schedule and failover are the plane driver's
(:mod:`repro.shard.plane`, shared with the fleet plane).  The
coordinator adds what is particular to splitting *one job's pairs*:

* **Heartbeats.** Each :class:`~repro.shard.monitor.ChunkResult`
  doubles as the shard's heartbeat and lands in the metric registry
  under ``shard.<i>.*``.

* **Orphan placement.** A dead shard's pairs are dealt round-robin, in
  pair order, to the survivors.

* **Merged localization.** Underlay tomography needs votes from *all*
  failing paths, which sharding scatters.  The coordinator collects
  each chunk's newly opened events, dedups them by key, groups them by
  detection time, and runs Algorithm 1 on its own reference replica —
  which traces every failing pair's route itself (the same route the
  reporting worker's replica would: placement and flow hash are
  seed-determined) — against the global healthy-pair set.  The merged
  vote table (:class:`MergedVoteTable`) accumulates per-link votes
  across shards.

The equivalence gate (:mod:`repro.shard.equivalence`) holds the whole
construction to its invariant: same seed, same events, same verdicts —
independent of shard count, backend, and failovers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.bus.codec import encode_event, encode_verdict
from repro.bus.core import Topic
from repro.cluster.topology import UnderlayPath
from repro.core.localization import LocalizationReport, Localizer
from repro.core.pinglist import ProbePair
from repro.network.issues import Symptom
from repro.shard.backend import InProcessBackend
from repro.shard.monitor import (
    ChunkResult,
    EventRecord,
    localize_records,
)
from repro.shard.partition import PartitionPlan, TopologyPartitioner
from repro.shard.plane import PlaneDriver, Reassignment, WorkerStatus
from repro.shard.spec import (
    FaultScheduleRunner,
    ShardScenarioSpec,
    build_replica,
    pair_universe,
)
from repro.sim.metrics import MetricRegistry

__all__ = [
    "MergedVoteTable",
    "ShardCoordinator",
    "ShardRunResult",
    "ShardStatus",
]


@dataclass
class ShardStatus(WorkerStatus):
    """The coordinator's live view of one shard (``units`` are its
    probe pairs)."""

    token: str = ""
    agent_count: int = 0
    last_sim_time: float = 0.0
    #: Latest per-agent circuit-breaker snapshots reported by the shard
    #: (chaos runs only): container id -> (state, consecutive_failures,
    #: opened_at, trips, recoveries).  After failover the adopter's
    #: replayed snapshots land here, so the coordinator's view of an
    #: adopted agent's breaker is the replay-exact one.
    breakers: Dict[str, tuple] = field(default_factory=dict)


class MergedVoteTable:
    """The plane-wide tomography vote table.

    Each unique failure event contributes one vote per physical link on
    its pair's route, into the symptom group the localizer's
    tomography stage uses ("hard" for unconnectivity — where healthy
    paths also exonerate — "soft" for everything else).  Votes are
    deduplicated by event key, so replayed events after a failover
    never double-count.
    """

    GROUPS = ("hard", "soft")

    def __init__(self) -> None:
        self._votes: Dict[str, Counter] = {
            group: Counter() for group in self.GROUPS
        }
        self._counted: Set[Tuple[ProbePair, float]] = set()

    def add_event(
        self, record: EventRecord, path: Optional[UnderlayPath]
    ) -> bool:
        """Count the links of ``path`` — the event pair's traced route,
        ``None`` when it has none; ``False`` if already counted."""
        if record.key in self._counted:
            return False
        self._counted.add(record.key)
        if path is None:
            return True
        group = (
            "hard"
            if record.symptom_type == Symptom.UNCONNECTIVITY
            else "soft"
        )
        for link in path.links:
            self._votes[group][link] += 1
        return True

    def votes(self, group: str) -> Dict[str, int]:
        """The group's link votes, keyed by link name (sorted)."""
        return {
            str(link): count
            for link, count in sorted(
                self._votes[group].items(), key=lambda kv: str(kv[0])
            )
        }

    def event_count(self) -> int:
        """Unique events counted so far."""
        return len(self._counted)

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        """Both groups' vote tables, JSON-ready."""
        return {group: self.votes(group) for group in self.GROUPS}


@dataclass
class ShardRunResult:
    """Everything a sharded run produced, in comparison-ready form."""

    spec: ShardScenarioSpec
    num_shards: int
    backend: str
    events: List[EventRecord]
    verdicts: List[Tuple[float, LocalizationReport]]
    vote_table: MergedVoteTable
    statuses: Dict[int, ShardStatus]
    reassignments: List[Reassignment]
    metrics: MetricRegistry
    plan: PartitionPlan

    def event_keys(self) -> Set[Tuple[ProbePair, float]]:
        """The identity set of every opened failure event."""
        return {record.key for record in self.events}

    def breaker_summary(self) -> List[tuple]:
        """Comparable breaker rows from every *live* shard: sorted
        ``(shard_id, container_id, state, consecutive_failures,
        opened_at, trips, recoveries)``.  Dead shards are excluded —
        their last snapshots are stale by definition; the adopters'
        replayed snapshots carry the authoritative state."""
        rows = []
        for shard_id in sorted(self.statuses):
            status = self.statuses[shard_id]
            if not status.alive:
                continue
            for agent_key in sorted(status.breakers):
                rows.append(
                    (shard_id, agent_key) + status.breakers[agent_key]
                )
        return rows

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
            "votes": [
                (group, link, count)
                for group in MergedVoteTable.GROUPS
                for link, count in self.vote_table.votes(group).items()
            ],
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
        # so the coordinator keeps one replica stepped to the current
        # chunk via the same replayable fault schedule the shards use.
        self.reference = build_replica(spec)
        self._reference_schedule = FaultScheduleRunner(
            self.reference.injector, spec,
            self.reference.task.containers.get,
        )
        self.all_pairs = pair_universe(spec, self.reference)
        # Warm the reference overlay exactly as probing would: resolve
        # every pair's flow once, before any scheduled fault applies.
        self.reference.fabric.send_probe_batch(self.all_pairs, 0.0)
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
                self.backend.spawn(shard_id, spec, pairs),
                ShardStatus(worker_id=shard_id, units=pairs),
            )

        self.vote_table = MergedVoteTable()
        self.events: List[EventRecord] = []
        self.verdicts: List[Tuple[float, LocalizationReport]] = []
        self._seen_events: Set[Tuple[ProbePair, float]] = set()

    def run(self) -> ShardRunResult:
        """Execute all rounds chunk by chunk; returns the merged run."""
        self._drive()
        return ShardRunResult(
            spec=self.spec,
            num_shards=self.num_workers,
            backend=getattr(self.backend, "name", "inproc"),
            events=list(self.events),
            verdicts=list(self.verdicts),
            vote_table=self.vote_table,
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
        for index, pair in enumerate(sorted(orphaned)):
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
        # Step the reference to where the workers stand, then merge.
        self._reference_schedule.advance_to(end)
        fresh = self._merge_results(results)
        self._publish_chunk(chunk, end)
        self._localize(fresh)

    def _merge_results(
        self, results: List[ChunkResult]
    ) -> List[EventRecord]:
        fresh: List[EventRecord] = []
        for result in sorted(results, key=lambda r: r.shard_id):
            status = self.statuses[result.shard_id]
            status.token = result.token
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
            for record in result.events:
                route = self.reference.fabric.traceroute(
                    record.src, record.dst
                )
                if self.vote_table.add_event(record, route):
                    self.metrics.increment("events.opened")
                if record.key in self._seen_events:
                    continue
                self._seen_events.add(record.key)
                fresh.append(record)
                self.events.append(record)
        return fresh

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
        rows = []
        for shard_id in sorted(self.statuses):
            status = self.statuses[shard_id]
            if not status.alive:
                continue
            for agent_key in sorted(status.breakers):
                rows.append(
                    [shard_id, agent_key]
                    + list(status.breakers[agent_key])
                )
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

    def _localize(self, fresh: List[EventRecord]) -> None:
        for at, records, report in localize_records(
            self.localizer, fresh, self.all_pairs
        ):
            self.verdicts.append((at, report))
            if self.bus is not None:
                for record in records:
                    self.bus.publish(
                        Topic.EVENTS, sim_time=at,
                        **encode_event(
                            record.pair, record.first_detected_at,
                            record.symptom_type,
                        ),
                    )
                self.bus.publish(
                    Topic.VERDICTS, sim_time=at,
                    **encode_verdict(at, report),
                )
            self.metrics.increment(
                "diagnoses.made", len(report.diagnoses)
            )
