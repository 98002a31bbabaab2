"""The per-shard monitoring worker.

A :class:`ShardMonitor` owns one replica of the cluster — the spec's
world with every pair resolved at t = 0
(:func:`~repro.shard.spec.build_warm_replica`), handed over by a forked
worker or built here — the shard's slice of the probe-pair universe,
and the replica hunter's analyzer.  It executes probe rounds through
the round driver of the single-process system
(:func:`~repro.core.probing.run_probe_round`), so
a shard is literally the existing monitoring loop over fewer pairs — at
O(pairs) a round either way: in-process shards on one core buy ~1x, and
only the ``mp`` backend is a scaling claim.

Because probe draws are pairwise-keyed by the run seed and the fault
schedule replays by round number, two monitors covering the same pair
observe byte-identical probe results; the analyzer's per-pair windows
then open identical failure events.  That is the whole equivalence
story: sharding changes who watches a pair, never what the pair does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.cluster.identifiers import EndpointId
from repro.core.agent import OverlayAgent
from repro.core.analyzer import FailureEvent
from repro.core.pinglist import PingList, ProbePair, pair_order
from repro.core.probing import ResilientProber, run_probe_round
from repro.core.resilience import CircuitBreaker
from repro.network.issues import Symptom
from repro.shard.spec import (
    FaultScheduleRunner,
    ShardScenarioSpec,
    build_monitor_chaos,
    build_warm_replica,
)
from repro.workloads.scenarios import MonitoredScenario

__all__ = [
    "ChunkResult",
    "EventRecord",
    "RoundEvents",
    "ShardMonitor",
]

#: The analyzer's incident identity: (pair, first detection).
EventKey = Tuple[ProbePair, float]


@dataclass(frozen=True)
class EventRecord:
    """A failure event in picklable, cross-process form.

    A record carries no route: placement and the flow hash are
    seed-determined, so whoever localizes it traces the same one on its
    own replica."""

    src: EndpointId
    dst: EndpointId
    first_detected_at: float
    symptom: str

    @property
    def pair(self) -> ProbePair:
        """The failing pair."""
        return ProbePair.canonical(self.src, self.dst)

    @classmethod
    def of(cls, event: FailureEvent) -> "EventRecord":
        """The record of an analyzer event."""
        return cls(
            src=event.pair.src,
            dst=event.pair.dst,
            first_detected_at=event.first_detected_at,
            symptom=event.symptom.name,
        )

    @property
    def key(self) -> EventKey:
        """The analyzer's incident identity: (pair, first detection)."""
        return (self.pair, self.first_detected_at)

    def to_failure_event(self) -> FailureEvent:
        """Rehydrate a :class:`FailureEvent` for the localizer."""
        return FailureEvent(
            pair=self.pair,
            first_detected_at=self.first_detected_at,
            symptom=Symptom[self.symptom],
        )


@dataclass(frozen=True)
class RoundEvents:
    """What one round changed in a shard's open events: the events it
    opened and the keys of those it resolved."""

    round_index: int
    opened: Tuple[EventRecord, ...]
    resolved: Tuple[EventKey, ...]


@dataclass(frozen=True)
class ChunkResult:
    """One shard's report for a chunk of rounds (its heartbeat)."""

    shard_id: int
    end_round: int
    sim_time: float
    agent_count: int
    probes_sent: int
    probes_lost: int
    #: One entry per round of the chunk, in round order.
    rounds: Tuple[RoundEvents, ...]
    replayed: bool = False
    #: Per-agent circuit-breaker snapshots at the chunk's end — rows of
    #: ``(container_id, state, consecutive_failures, opened_at, trips,
    #: recoveries)``, sorted by container.  Empty when the spec has no
    #: monitor-fault schedule (the default also keeps old pickles
    #: loadable).  Breakers are driven purely by simulated time, so an
    #: adopter's post-replay snapshots are bit-identical to those of a
    #: monitor that owned the union pair set from round one.
    breaker_states: Tuple[tuple, ...] = ()


class ShardMonitor:
    """One shard: a replica cluster plus the standard monitoring loop.

    ``replica`` is the spec's warm replica, untouched since it was
    built (a forked worker's inherited reference); ``None`` builds one.
    The monitor steps it, so nothing else may step or share it.
    """

    def __init__(
        self,
        shard_id: int,
        spec: ShardScenarioSpec,
        pairs: Iterable[ProbePair],
        replica: Optional[MonitoredScenario] = None,
    ) -> None:
        self.shard_id = shard_id
        self.spec = spec
        self.pairs: Tuple[ProbePair, ...] = tuple(
            sorted(set(pairs), key=pair_order)
        )
        self.rounds_completed = 0
        self._build(replica)

    # ------------------------------------------------------------------
    # Replica construction
    # ------------------------------------------------------------------

    def _build(self, replica: Optional[MonitoredScenario] = None) -> None:
        self.scenario = (
            replica if replica is not None
            else build_warm_replica(self.spec)[0]
        )
        self.schedule = FaultScheduleRunner(
            self.scenario.injector, self.spec,
            self.scenario.task.containers.get,
        )
        self.ping_list = PingList(pairs=frozenset(self.pairs), phase="shard")
        for container_id in self.scenario.task.containers:
            self.ping_list.register(container_id)
        self.analyzer = self.scenario.hunter.analyzer
        # Monitor-plane chaos: the injector is pure and its fault ids
        # are pinned by the spec, so rebuilding it here (fresh breakers
        # included) before a failover replay reproduces the exact
        # hardened trajectory of a monitor that owned these pairs from
        # round one.
        self.chaos = build_monitor_chaos(self.spec)
        containers = sorted(
            {pair.src.container for pair in self.pairs}
        )
        self.agents: List[OverlayAgent] = [
            OverlayAgent(
                container=self.scenario.task.containers[container_id],
                ping_list=self.ping_list,
                started_at=0.0,
                prober=(
                    None if self.chaos is None else ResilientProber(
                        self.chaos, breaker=CircuitBreaker()
                    )
                ),
            )
            for container_id in containers
        ]
        self.rounds_completed = 0

    def breaker_snapshots(self) -> Tuple[tuple, ...]:
        """Per-agent breaker snapshots, sorted by container id."""
        rows = []
        for agent in self.agents:
            if agent.prober is None or agent.prober.breaker is None:
                continue
            rows.append(
                (str(agent.container.id),)
                + agent.prober.breaker.snapshot()
            )
        return tuple(sorted(rows))

    # ------------------------------------------------------------------
    # Probe rounds
    # ------------------------------------------------------------------

    def run_rounds(
        self, start_round: int, end_round: int, replayed: bool = False
    ) -> ChunkResult:
        """Run rounds ``start_round..end_round`` inclusive and report."""
        if start_round != self.rounds_completed + 1:
            raise ValueError(
                f"shard {self.shard_id} is at round "
                f"{self.rounds_completed}, cannot start at {start_round}"
            )
        fabric = self.scenario.fabric
        sent0 = fabric.probes_sent
        lost0 = fabric.probes_lost
        rounds = tuple(
            self._run_round(round_index)
            for round_index in range(start_round, end_round + 1)
        )
        return ChunkResult(
            shard_id=self.shard_id,
            end_round=end_round,
            sim_time=self.spec.round_time(max(end_round, 1)),
            agent_count=len(self.agents),
            probes_sent=fabric.probes_sent - sent0,
            probes_lost=fabric.probes_lost - lost0,
            rounds=rounds,
            replayed=replayed,
            breaker_states=self.breaker_snapshots(),
        )

    def _run_round(self, round_index: int) -> RoundEvents:
        self.schedule.advance_to(round_index)
        now = self.spec.round_time(round_index)
        analyzer = self.analyzer
        before = len(analyzer.events)
        was_open = {event.key for event in analyzer.open_events()}
        analyzer.ingest_batch(run_probe_round(
            self.agents, self.scenario.fabric, now,
            self.spec.round_time(round_index + 1),
        ))
        analyzer.flush(now)
        self.rounds_completed = round_index
        new = analyzer.events[before:]
        still_open = {event.key for event in analyzer.open_events()}
        return RoundEvents(
            round_index=round_index,
            opened=tuple(EventRecord.of(event) for event in new),
            resolved=tuple(sorted(
                (was_open | {event.key for event in new}) - still_open
            )),
        )

    # ------------------------------------------------------------------
    # Failover adoption
    # ------------------------------------------------------------------

    def adopt(
        self, pairs: Sequence[ProbePair], upto_round: int
    ) -> Optional[ChunkResult]:
        """Take over ``pairs`` from a dead shard.

        Builds a fresh warm replica for the union pair set (the one it
        ran on has been stepped) and replays rounds ``1..upto_round``
        against it — probe outcomes are pure functions of (seed, pair,
        time), so after the replay this monitor's state is identical
        to having owned the union from round one.  The replay's rounds
        (including re-detections of incidents the dead shard already
        reported) come back in the result; the coordinator drops what
        it already merged.
        """
        self.pairs = tuple(
            sorted(set(self.pairs) | set(pairs), key=pair_order)
        )
        self._build()
        if upto_round < 1:
            return None
        return self.run_rounds(1, upto_round, replayed=True)
