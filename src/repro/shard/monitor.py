"""The per-shard monitoring worker.

A :class:`ShardMonitor` owns one replica of the cluster (built from the
picklable spec), the shard's slice of the probe-pair universe, and its
own analyzer.  It executes probe rounds through the round driver of the
single-process system (:func:`~repro.core.probing.run_probe_round`), so
a shard is literally the existing monitoring loop over fewer pairs — at
O(pairs) a round either way: in-process shards on one core buy ~1x, and
only the ``mp`` backend is a scaling claim.

Because probe draws are pairwise-keyed by the run seed and the fault
schedule replays by round number, two monitors covering the same pair
observe byte-identical probe results; the analyzer's per-pair windows
then open identical failure events.  That is the whole equivalence
story: sharding changes who watches a pair, never what the pair does.

The per-shard seed (``derive_seed(run_seed, "shard:<id>")``) seeds the
shard's private RNG registry.  It deliberately does *not* feed probe
draws — those must be shard-independent — and today only mints the
shard's identity token reported in heartbeats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.cluster.identifiers import EndpointId
from repro.core.agent import OverlayAgent
from repro.core.analyzer import Analyzer, FailureEvent
from repro.core.localization import (
    LocalizationReport,
    Localizer,
    healthy_pairs_for,
)
from repro.core.pinglist import PingList, ProbePair
from repro.core.probing import ResilientProber, run_probe_round
from repro.core.resilience import CircuitBreaker
from repro.network.issues import Symptom
from repro.shard.spec import (
    FaultScheduleRunner,
    ShardScenarioSpec,
    build_monitor_chaos,
    build_replica,
)
from repro.sim.rng import RngRegistry, derive_seed

__all__ = [
    "ChunkResult",
    "EventRecord",
    "ShardMonitor",
    "collect_fresh_records",
    "localize_records",
]


@dataclass(frozen=True)
class EventRecord:
    """A failure event in picklable, cross-process form."""

    src: EndpointId
    dst: EndpointId
    first_detected_at: float
    symptom: str

    @property
    def pair(self) -> ProbePair:
        """The failing pair."""
        return ProbePair.canonical(self.src, self.dst)

    @property
    def key(self) -> Tuple[ProbePair, float]:
        """The analyzer's incident identity: (pair, first detection)."""
        return (self.pair, self.first_detected_at)

    @property
    def symptom_type(self) -> Symptom:
        """The symptom as the catalogue enum."""
        return Symptom[self.symptom]

    def to_failure_event(self) -> FailureEvent:
        """Rehydrate a :class:`FailureEvent` for the localizer."""
        return FailureEvent(
            pair=self.pair,
            first_detected_at=self.first_detected_at,
            symptom=self.symptom_type,
        )


def collect_fresh_records(
    analyzer: Analyzer, reported: Set[Tuple[ProbePair, float]]
) -> List[EventRecord]:
    """The analyzer's events not yet in ``reported``, as records in
    (detection time, pair) order.  Marks them reported.

    A record carries no route: placement and the flow hash are
    seed-determined, so whoever localizes it traces the same one on its
    own replica."""
    fresh = sorted(
        (
            event for event in analyzer.events
            if event.key not in reported
        ),
        key=lambda event: (event.first_detected_at, event.pair),
    )
    reported.update(event.key for event in fresh)
    return [
        EventRecord(
            src=event.pair.src,
            dst=event.pair.dst,
            first_detected_at=event.first_detected_at,
            symptom=event.symptom.name,
        )
        for event in fresh
    ]


def localize_records(
    localizer: Localizer,
    records: Iterable[EventRecord],
    universe: Sequence[ProbePair],
) -> Iterator[Tuple[float, List[EventRecord], LocalizationReport]]:
    """Algorithm 1 over fresh records, one batch per detection time.

    Yields ``(at, batch, report)`` in time order, each batch in pair
    order, localized with every pair of ``universe`` the batch does not
    implicate as healthy evidence.  Both planes batch this way — the
    *fresh* events of one detection time — whereas the single-process
    hunter and the replayer batch *every open* event each time
    something is fresh
    (:func:`repro.core.localization.localize_open_events`).  Lazy: the
    caller acts on one report before the next batch is localized.
    """
    groups: Dict[float, List[EventRecord]] = {}
    for record in sorted(
        records, key=lambda r: (r.first_detected_at, r.pair)
    ):
        groups.setdefault(record.first_detected_at, []).append(record)
    for at, batch in groups.items():
        events = [record.to_failure_event() for record in batch]
        report = localizer.localize(
            events,
            healthy_pairs=healthy_pairs_for(events, universe),
            now=at,
        )
        yield at, batch, report


@dataclass(frozen=True)
class ChunkResult:
    """One shard's report for a chunk of rounds (its heartbeat)."""

    shard_id: int
    token: str
    start_round: int
    end_round: int
    sim_time: float
    agent_count: int
    probes_sent: int
    probes_lost: int
    events: Tuple[EventRecord, ...]
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
    """One shard: a replica cluster plus the standard monitoring loop."""

    def __init__(
        self,
        shard_id: int,
        spec: ShardScenarioSpec,
        pairs: Iterable[ProbePair],
    ) -> None:
        self.shard_id = shard_id
        self.spec = spec
        self.pairs: Tuple[ProbePair, ...] = tuple(sorted(set(pairs)))
        self.seed = derive_seed(spec.seed, f"shard:{shard_id}")
        self.rng = RngRegistry(self.seed)
        # A deterministic identity token for heartbeats/status — minted
        # from the shard seed, which (by design) never touches probing.
        self.token = format(
            int(self.rng.stream("token").integers(0, 2 ** 32)), "08x"
        )
        self.rounds_completed = 0
        self._build()

    # ------------------------------------------------------------------
    # Replica construction
    # ------------------------------------------------------------------

    def _build(self) -> None:
        self.scenario = build_replica(self.spec)
        self.schedule = FaultScheduleRunner(
            self.scenario.injector, self.spec,
            self.scenario.task.containers.get,
        )
        self.ping_list = PingList(pairs=frozenset(self.pairs), phase="shard")
        for container_id in self.scenario.task.containers:
            self.ping_list.register(container_id)
        self.analyzer = Analyzer(config=self.spec.detector)
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
        self._reported: Set[Tuple[ProbePair, float]] = set()
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
        now = self.spec.round_time(max(end_round, 1))
        for round_index in range(start_round, end_round + 1):
            self.schedule.advance_to(round_index)
            now = self.spec.round_time(round_index)
            run_probe_round(
                self.agents, fabric, now, self.analyzer.ingest_batch
            )
            self.analyzer.flush(now)
            self.rounds_completed = round_index
        return ChunkResult(
            shard_id=self.shard_id,
            token=self.token,
            start_round=start_round,
            end_round=end_round,
            sim_time=now,
            agent_count=len(self.agents),
            probes_sent=fabric.probes_sent - sent0,
            probes_lost=fabric.probes_lost - lost0,
            events=tuple(collect_fresh_records(
                self.analyzer, self._reported
            )),
            replayed=replayed,
            breaker_states=self.breaker_snapshots(),
        )

    # ------------------------------------------------------------------
    # Failover adoption
    # ------------------------------------------------------------------

    def adopt(
        self, pairs: Sequence[ProbePair], upto_round: int
    ) -> Optional[ChunkResult]:
        """Take over ``pairs`` from a dead shard.

        Rebuilds a fresh replica for the union pair set and replays
        rounds ``1..upto_round`` against it — probe outcomes are pure
        functions of (seed, pair, time), so after the replay this
        monitor's state is identical to having owned the union from
        round one.  The replay's events (including re-detections of
        incidents the dead shard already reported) come back in the
        result; the coordinator dedups them by event key.
        """
        self.pairs = tuple(sorted(set(self.pairs) | set(pairs)))
        self._build()
        if upto_round < 1:
            return None
        return self.run_rounds(1, upto_round, replayed=True)
