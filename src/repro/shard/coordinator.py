"""The shard coordinator: heartbeats, failover, and merged localization.

The coordinator owns what must stay global in a sharded plane:

* **Dispatch + heartbeats.** Rounds are executed in fixed-size chunks.
  Every chunk, the coordinator dispatches to all live shards first and
  collects afterwards (so a parallel backend overlaps their work); each
  :class:`~repro.shard.monitor.ChunkResult` doubles as the shard's
  heartbeat and lands in the metric registry under ``shard.<i>.*``.

* **Failover.** A dead shard (broken pipe, crashed worker, scripted
  kill) is detected at dispatch or collect — never by wall-clock
  timeout, which would be nondeterministic.  Its pairs are re-assigned
  round-robin to the survivors, each of which rebuilds a fresh replica
  and *replays* rounds ``1..r`` for its enlarged pair set.  Replay is
  exact (probe outcomes are pure functions of seed/pair/time), so
  after adoption the survivor is indistinguishable from having owned
  those pairs all along; replayed duplicate events are dropped by key.

* **Merged localization.** Underlay tomography needs votes from *all*
  failing paths, which sharding scatters.  The coordinator collects
  each chunk's newly opened events, dedups them by key, groups them by
  detection time, and runs Algorithm 1 on its own reference replica —
  with worker-reported paths and the global healthy-pair set — exactly
  as the single-process hunter would.  The merged vote table
  (:class:`MergedVoteTable`) accumulates per-link votes across shards.

The equivalence gate (:mod:`repro.shard.equivalence`) holds the whole
construction to its invariant: same seed, same events, same verdicts —
independent of shard count, backend, and failovers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster.topology import UnderlayPath
from repro.core.localization import (
    LocalizationReport,
    Localizer,
    healthy_pairs_for,
)
from repro.core.pinglist import ProbePair
from repro.network.issues import Symptom
from repro.shard.backend import (
    InProcessBackend,
    ShardDeadError,
    ShardHandle,
)
from repro.shard.monitor import ChunkResult, EventRecord
from repro.shard.partition import PartitionPlan, TopologyPartitioner
from repro.shard.spec import (
    FaultScheduleRunner,
    ShardScenarioSpec,
    build_replica,
    pair_universe,
)
from repro.sim.metrics import MetricRegistry

__all__ = [
    "MergedVoteTable",
    "Reassignment",
    "ShardCoordinator",
    "ShardPlaneError",
    "ShardRunResult",
    "ShardStatus",
]


class ShardPlaneError(RuntimeError):
    """The plane cannot make progress (e.g. every shard died)."""


@dataclass
class ShardStatus:
    """The coordinator's live view of one shard."""

    shard_id: int
    token: str = ""
    pair_count: int = 0
    agent_count: int = 0
    alive: bool = True
    chunks_completed: int = 0
    last_round: int = 0
    last_sim_time: float = 0.0
    adopted_pairs: int = 0
    #: Latest per-agent circuit-breaker snapshots reported by the shard
    #: (chaos runs only): container id -> (state, consecutive_failures,
    #: opened_at, trips, recoveries).  After failover the adopter's
    #: replayed snapshots land here, so the coordinator's view of an
    #: adopted agent's breaker is the replay-exact one.
    breakers: Dict[str, tuple] = field(default_factory=dict)


@dataclass(frozen=True)
class Reassignment:
    """One failover: pairs moving from a dead shard to a survivor."""

    chunk: int
    round_index: int
    from_shard: int
    to_shard: int
    pair_count: int


class MergedVoteTable:
    """The plane-wide tomography vote table.

    Each unique failure event contributes one vote per physical link on
    its reported path, into the symptom group the localizer's
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

    def add_event(self, record: EventRecord) -> bool:
        """Count one event's path links; ``False`` if already counted."""
        if record.key in self._counted:
            return False
        self._counted.add(record.key)
        if record.path_devices is None:
            return True
        group = (
            "hard"
            if record.symptom_type == Symptom.UNCONNECTIVITY
            else "soft"
        )
        path = UnderlayPath.through(record.path_devices)
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


class ShardCoordinator:
    """Drives N shard monitors to the spec's horizon, merging results."""

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
        """``kill_schedule`` maps shard id -> chunk index (1-based) at
        whose start the shard is killed (chaos/failover testing)."""
        if num_shards < 1:
            raise ValueError("need at least one shard")
        if chunk_rounds < 1:
            raise ValueError("chunks must contain at least one round")
        self.spec = spec
        self.num_shards = num_shards
        self.backend = backend if backend is not None else (
            InProcessBackend()
        )
        self.chunk_rounds = chunk_rounds
        self.recorder = recorder
        # Telemetry bus: per-shard streams are published here from the
        # merge step only — results are folded in sorted shard-id
        # order, so the bus sees one deterministic interleaving no
        # matter how the backend scheduled the workers.
        self.bus = bus
        self.kill_schedule = dict(kill_schedule or {})
        for shard_id in sorted(self.kill_schedule):
            if not 0 <= shard_id < num_shards:
                raise ValueError(
                    f"kill_schedule shard {shard_id} out of range for "
                    f"{num_shards} shards"
                )

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
        self.reference.fabric.send_probe_batch(self.all_pairs, 0.0, 0)
        self.localizer = Localizer(
            self.reference.cluster,
            self.reference.fabric,
            recorder=recorder,
        )

        partitioner = TopologyPartitioner(self.reference.cluster)
        self.plan = partitioner.partition(self.all_pairs, num_shards)

        self.metrics = (
            recorder.metrics if recorder is not None else MetricRegistry()
        )
        self.handles: Dict[int, ShardHandle] = {}
        self.statuses: Dict[int, ShardStatus] = {}
        self._pairs_of: Dict[int, Tuple[ProbePair, ...]] = {}
        for shard_id in range(num_shards):
            pairs = self.plan.pairs_of(shard_id)
            self.handles[shard_id] = self.backend.spawn(
                shard_id, spec, pairs
            )
            self._pairs_of[shard_id] = pairs
            self.statuses[shard_id] = ShardStatus(
                shard_id=shard_id, pair_count=len(pairs)
            )

        self.vote_table = MergedVoteTable()
        self.events: List[EventRecord] = []
        self.verdicts: List[Tuple[float, LocalizationReport]] = []
        self.reassignments: List[Reassignment] = []
        self._seen_events: Set[Tuple[ProbePair, float]] = set()

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------

    def run(self) -> ShardRunResult:
        """Execute all rounds chunk by chunk; returns the merged run."""
        total = self.spec.total_rounds
        chunk = 0
        next_round = 1
        try:
            while next_round <= total:
                chunk += 1
                start = next_round
                end = min(start + self.chunk_rounds - 1, total)
                self._run_chunk(chunk, start, end)
                next_round = end + 1
        finally:
            for handle in self.handles.values():
                if handle.alive:
                    handle.stop()
        return ShardRunResult(
            spec=self.spec,
            num_shards=self.num_shards,
            backend=getattr(self.backend, "name", "inproc"),
            events=list(self.events),
            verdicts=list(self.verdicts),
            vote_table=self.vote_table,
            statuses=self.statuses,
            reassignments=list(self.reassignments),
            metrics=self.metrics,
            plan=self.plan,
        )

    # ------------------------------------------------------------------
    # One chunk
    # ------------------------------------------------------------------

    def _live_shards(self) -> List[int]:
        return sorted(
            shard_id
            for shard_id, handle in self.handles.items()
            if handle.alive
        )

    def _run_chunk(self, chunk: int, start: int, end: int) -> None:
        for shard_id, at_chunk in sorted(self.kill_schedule.items()):
            if at_chunk == chunk and self.handles[shard_id].alive:
                self.handles[shard_id].kill()
                self._mark_dead(shard_id, start)

        results: List[ChunkResult] = []
        dead_this_chunk: List[int] = []

        dispatched: List[int] = []
        for shard_id in self._live_shards():
            try:
                self.handles[shard_id].begin_chunk(start, end)
                dispatched.append(shard_id)
            except ShardDeadError:
                self._mark_dead(shard_id, start)
                dead_this_chunk.append(shard_id)
        for shard_id in dispatched:
            try:
                results.append(self.handles[shard_id].finish_chunk())
            except ShardDeadError:
                self._mark_dead(shard_id, start)
                dead_this_chunk.append(shard_id)

        # Shards killed by schedule before dispatch also need failover.
        dead_this_chunk.extend(
            shard_id for shard_id, at_chunk in sorted(
                self.kill_schedule.items()
            )
            if at_chunk == chunk
            and shard_id not in dead_this_chunk
            and self._pairs_of.get(shard_id)
        )

        if dead_this_chunk:
            results.extend(
                self._failover(chunk, sorted(set(dead_this_chunk)), end)
            )

        fresh = self._merge_results(chunk, end, results)
        self._reference_schedule.advance_to(end)
        self._localize(fresh)

    def _mark_dead(self, shard_id: int, round_index: int) -> None:
        status = self.statuses[shard_id]
        if not status.alive:
            return
        status.alive = False
        # Handles normally mark themselves dead when they raise, but
        # failover correctness (no pair left unowned, worklist
        # termination) must not depend on backend discipline.
        self.handles[shard_id].alive = False
        self.metrics.increment("shard.deaths")
        if self.recorder is not None:
            self.recorder.event(
                "shard.dead",
                sim_time=self.spec.round_time(round_index),
                shard=shard_id,
            )

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------

    def _failover(
        self, chunk: int, dead: List[int], upto_round: int
    ) -> List[ChunkResult]:
        """Reassign dead shards' pairs and replay them on survivors.

        Runs as a worklist: an adopter that dies mid-rebuild re-orphans
        its whole pair set (original + adopted) on the next pass, so no
        pair is ever left unowned.  Exhausting the survivors raises
        :class:`ShardPlaneError`.
        """
        replays: List[ChunkResult] = []
        pending = sorted(set(dead))
        while pending:
            survivors = self._live_shards()
            if not survivors:
                raise ShardPlaneError(
                    f"all shards dead at chunk {chunk}; cannot continue"
                )
            additions: Dict[int, List[ProbePair]] = {
                shard_id: [] for shard_id in survivors
            }
            for dead_id in pending:
                orphaned = sorted(self._pairs_of.pop(dead_id, ()))
                if not orphaned:
                    continue
                for index, pair in enumerate(orphaned):
                    additions[survivors[index % len(survivors)]].append(
                        pair
                    )
                for target in survivors:
                    moved = sum(
                        1 for i, _ in enumerate(orphaned)
                        if survivors[i % len(survivors)] == target
                    )
                    if moved == 0:
                        continue
                    self.reassignments.append(Reassignment(
                        chunk=chunk,
                        round_index=upto_round,
                        from_shard=dead_id,
                        to_shard=target,
                        pair_count=moved,
                    ))
                    self.metrics.increment("shard.reassignments")
                    self.metrics.increment(
                        f"shard.{target}.pairs_adopted", moved
                    )
                    if self.recorder is not None:
                        self.recorder.event(
                            "shard.reassign",
                            sim_time=self.spec.round_time(upto_round),
                            from_shard=dead_id, to_shard=target,
                            pairs=moved,
                        )

            pending = []
            for target in survivors:
                if not additions[target]:
                    continue
                union = tuple(sorted(
                    set(self._pairs_of[target]) | set(additions[target])
                ))
                self._pairs_of[target] = union
                status = self.statuses[target]
                status.adopted_pairs += len(additions[target])
                status.pair_count = len(union)
                try:
                    replay = self.handles[target].rebuild(
                        union, upto_round
                    )
                except ShardDeadError:
                    self._mark_dead(target, upto_round)
                    pending.append(target)
                    continue
                if replay is not None:
                    replays.append(replay)
        return replays

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------

    def _merge_results(
        self, chunk: int, end_round: int, results: List[ChunkResult]
    ) -> List[EventRecord]:
        fresh: List[EventRecord] = []
        for result in sorted(results, key=lambda r: r.shard_id):
            status = self.statuses[result.shard_id]
            status.token = result.token
            status.pair_count = result.pair_count
            status.agent_count = result.agent_count
            status.last_round = max(status.last_round, result.end_round)
            status.last_sim_time = max(
                status.last_sim_time, result.sim_time
            )
            if not result.replayed:
                status.chunks_completed += 1
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
                if self.vote_table.add_event(record):
                    self.metrics.increment("events.opened")
                if record.key in self._seen_events:
                    continue
                self._seen_events.add(record.key)
                fresh.append(record)
                self.events.append(record)
        self._publish_chunk(chunk, end_round)
        return fresh

    def _publish_chunk(self, chunk: int, end_round: int) -> None:
        """Publish the post-merge shard-health and breaker views."""
        if self.bus is None:
            return
        from repro.bus.core import Topic

        at = self.spec.round_time(end_round)
        self.bus.publish(
            Topic.SHARD_HEALTH,
            sim_time=at,
            chunk=chunk,
            round=end_round,
            shards=[
                {
                    "id": shard_id,
                    "alive": self.statuses[shard_id].alive,
                    "pairs": self.statuses[shard_id].pair_count,
                    "agents": self.statuses[shard_id].agent_count,
                    "chunks": self.statuses[shard_id].chunks_completed,
                    "last_round": self.statuses[shard_id].last_round,
                    "adopted": self.statuses[shard_id].adopted_pairs,
                }
                for shard_id in sorted(self.statuses)
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
        if not fresh:
            return
        ordered = sorted(
            fresh, key=lambda r: (r.first_detected_at, r.pair)
        )
        groups: Dict[float, List[EventRecord]] = {}
        for record in ordered:
            groups.setdefault(record.first_detected_at, []).append(record)
        for at in sorted(groups):
            records = groups[at]
            events = [record.to_failure_event() for record in records]
            if self.bus is not None:
                from repro.bus.core import Topic

                for record in records:
                    self.bus.publish(
                        Topic.EVENTS,
                        sim_time=at,
                        src=str(record.src),
                        dst=str(record.dst),
                        first_detected_at=record.first_detected_at,
                        symptom=record.symptom,
                    )
            paths = {
                record.pair: UnderlayPath.through(record.path_devices)
                for record in records
                if record.path_devices is not None
            }
            healthy = healthy_pairs_for(events, self.all_pairs)
            report = self.localizer.localize(
                events, healthy_pairs=healthy, now=at, paths=paths
            )
            self.verdicts.append((at, report))
            if self.bus is not None:
                from repro.bus.core import Topic

                diagnoses, unexplained = report.verdict_row()
                self.bus.publish(
                    Topic.VERDICTS,
                    sim_time=at,
                    at=at,
                    diagnoses=[list(row) for row in diagnoses],
                    unexplained=unexplained,
                )
            self.metrics.increment(
                "diagnoses.made", len(report.diagnoses)
            )
