"""Picklable scenario recipes for the sharded monitoring plane.

Shard workers may run in other processes, so they cannot share the
coordinator's live simulation objects.  Instead every worker receives a
:class:`ShardScenarioSpec` — a frozen, picklable *recipe* — and starts
from the one world the spec names, :func:`build_warm_replica`: its
replica with the whole pair universe resolved at t = 0, before any
scheduled fault applies (a forked worker inherits the coordinator's,
anyone else builds it).  Two properties make replicas interchangeable
with the original:

* :func:`repro.workloads.scenarios.build_scenario` is deterministic in
  its seed, so every replica has identical topology, placement, and
  overlay state; and
* the fault schedule is expressed in *round numbers* (not live object
  references), so any replica can replay it independently and land in
  the same data-plane state before any round.

Probe randomness comes from the run seed via the fabric's pairwise draw
source (:mod:`repro.network.draws`), so probe outcomes are identical in
every replica regardless of which pairs it monitors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from repro.chaos.faults import MonitorFaultInjector, MonitorIssue
from repro.cluster.container import Container
from repro.cluster.identifiers import ContainerId
from repro.core.detection import DetectorConfig
from repro.core.pinglist import PingList, ProbePair, pair_order
from repro.network.faults import Fault, FaultInjector
from repro.network.issues import lookup_issue
from repro.workloads.scenarios import MonitoredScenario, build_scenario

__all__ = [
    "FaultSpec",
    "FaultScheduleRunner",
    "MonitorFaultSpec",
    "ShardScenarioSpec",
    "build_monitor_chaos",
    "build_replica",
    "build_warm_replica",
    "pair_universe",
]


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault, in replayable (round-number) form.

    ``target`` is an identifier (``RnicId``, ``LinkId``, ``SwitchId``,
    ``HostId``, or ``ContainerId``), never a live object — identifiers
    pickle cleanly and resolve identically in every replica.  The fault
    is injected just before round ``start_round`` probes and cleared
    just before round ``end_round`` probes (active rounds form the
    half-open interval ``[start_round, end_round)``); ``end_round=None``
    leaves it active for the rest of the run.
    """

    issue: str
    target: object
    start_round: int
    end_round: Optional[int] = None
    overrides: Tuple[Tuple[str, float], ...] = ()

    def issue_type(self):
        """The catalogue issue this spec injects (Table 1 or gray)."""
        return lookup_issue(self.issue)


@dataclass(frozen=True)
class MonitorFaultSpec:
    """One scheduled monitor-plane fault, in replayable form.

    The chaos dual of :class:`FaultSpec`: windows are round numbers,
    ``scope`` is an identifier-string prefix (never a live object), and
    the whole schedule is pure — :func:`build_monitor_chaos` pins each
    fault's id to its spec index, so every replica, rebuilt at any time
    in any process, draws identical per-query fates and a failover
    replay sees the same monitor-plane weather the dead shard saw.
    ``rate``/``delay_s`` of ``None`` keep the catalogue defaults.
    """

    issue: str
    start_round: int
    end_round: Optional[int] = None
    scope: Optional[str] = None
    rate: Optional[float] = None
    delay_s: Optional[float] = None

    def issue_type(self) -> MonitorIssue:
        """The monitor-plane catalogue issue this spec injects."""
        return MonitorIssue[self.issue]


@dataclass(frozen=True)
class ShardScenarioSpec:
    """Everything needed to rebuild the monitored scenario anywhere."""

    num_containers: int = 16
    gpus_per_container: int = 4
    pp: int = 2
    seed: int = 0
    probe_interval_s: float = 2.0
    num_spines: int = 4
    hosts_per_segment: int = 8
    total_rounds: int = 30
    #: "ring_chord" — the O(n) skeleton-like pair list benchmarks use;
    #: "basic" — the full rail-pruned preload list.
    pair_mode: str = "ring_chord"
    faults: Tuple[FaultSpec, ...] = ()
    #: Monitor-plane (chaos) schedule; empty means a perfect monitor
    #: and keeps every shard on the original, unhardened probe path.
    monitor_faults: Tuple[MonitorFaultSpec, ...] = ()
    detector: Optional[DetectorConfig] = None
    #: ECMP mode every replica's fabric runs in ("static" or "spray").
    #: Part of the spec so a failover replica rebuilds the fabric the
    #: original shard used: a spraying run's probe outcomes draw a
    #: sixth per-probe column, so a replica rebuilt in the wrong mode
    #: would diverge bit-wise.
    ecmp_mode: str = "static"

    def round_time(self, round_index: int) -> float:
        """Simulated time of round ``round_index`` (rounds are 1-based,
        matching the hunter's first scheduled probe round)."""
        if round_index < 1:
            raise ValueError(f"rounds are 1-based, got {round_index}")
        return round_index * self.probe_interval_s


def build_replica(spec: ShardScenarioSpec) -> MonitoredScenario:
    """Build one replica of the spec'd scenario.

    ``watch=False`` skips the hunter's basic ping-list preload — shard
    monitors carry their own pair subset, and at production scale the
    unused preload list would dominate replica memory.  Probe draws are
    keyed by the *run* seed (the replica's registry seed), so probe
    outcomes match every other replica.
    """
    return build_scenario(
        num_containers=spec.num_containers,
        gpus_per_container=spec.gpus_per_container,
        pp=spec.pp,
        seed=spec.seed,
        probe_interval_s=spec.probe_interval_s,
        num_spines=spec.num_spines,
        hosts_per_segment=spec.hosts_per_segment,
        detector_config=spec.detector,
        ecmp_mode=spec.ecmp_mode,
        instant_startup=True,
        start_monitoring=False,
        watch=False,
    )


def build_warm_replica(
    spec: ShardScenarioSpec,
) -> Tuple[MonitoredScenario, List[ProbePair]]:
    """The world every shard worker starts from, and its pair universe.

    The spec's replica with every pair of the universe resolved once at
    t = 0, exactly as probing would, before any scheduled fault
    applies: the coordinator's reference replica, which a forked worker
    inherits, and what an in-process worker, a ``spawn``-ed one and a
    failover adopter build for themselves.  Every pair's rules are
    installed (and offloaded) in that one state, so a fault already
    active at round 1 meets the same tables in every replica whoever
    owns which pairs.
    """
    replica = build_replica(spec)
    pairs = pair_universe(spec, replica)
    replica.fabric.send_probe_batch(pairs, 0.0)
    return replica, pairs


def build_monitor_chaos(
    spec: ShardScenarioSpec,
) -> Optional[MonitorFaultInjector]:
    """The spec's monitor-fault injector; ``None`` = perfect monitor.

    Every fault's id is pinned to its spec index: the injector's keyed
    draws include the fault id, so pinning (rather than the module's
    process-global counter) is what makes two replicas — or one replica
    rebuilt after failover — draw byte-identical monitor-plane fates.
    """
    if not spec.monitor_faults:
        return None
    injector = MonitorFaultInjector(seed=spec.seed)
    for index, mf in enumerate(spec.monitor_faults):
        overrides = {"fault_id": index}
        if mf.rate is not None:
            overrides["rate"] = mf.rate
        if mf.delay_s is not None:
            overrides["delay_s"] = mf.delay_s
        injector.inject_issue(
            mf.issue_type(),
            start=spec.round_time(mf.start_round),
            end=(
                spec.round_time(mf.end_round)
                if mf.end_round is not None else None
            ),
            scope=mf.scope,
            **overrides,
        )
    return injector


def pair_universe(
    spec: ShardScenarioSpec, scenario: MonitoredScenario
) -> List[ProbePair]:
    """The run's full probe-pair set, sorted (deterministic)."""
    endpoints = sorted(scenario.task.endpoints())
    if spec.pair_mode == "basic":
        task = scenario.task

        def rail(endpoint):
            return task.containers[endpoint.container].rail_of(endpoint)

        return sorted(PingList.basic(endpoints, rail).pairs, key=pair_order)
    if spec.pair_mode == "ring_chord":
        return ring_chord_pairs(endpoints)
    raise ValueError(f"unknown pair mode {spec.pair_mode!r}")


def ring_chord_pairs(endpoints) -> List[ProbePair]:
    """A ring plus long chords over ``endpoints`` (sorted, distinct) —
    the O(n) skeleton-like pair list, with same-container neighbours
    dropped as ping lists always do, sorted.

    In a sorted, distinct list, position order is endpoint order, so a
    pair is canonical as ``(min, max)`` of its two positions and the
    pairs sort as those integer tuples.
    """
    n = len(endpoints)
    stride = n // 3 + 1
    positions = set()
    for i, src in enumerate(endpoints):
        for j in ((i + 1) % n, (i + stride) % n):
            if i != j and src.container != endpoints[j].container:
                positions.add((i, j) if i < j else (j, i))
    return [
        ProbePair(endpoints[i], endpoints[j]) for i, j in sorted(positions)
    ]


@dataclass
class FaultScheduleRunner:
    """Replays a spec's fault schedule against one replica.

    Drives the replica's injector round by round: calling
    :meth:`advance_to` applies every injection/clear scheduled for the
    rounds since the last call, in spec order — so any replica, built
    at any time, reaches the same data-plane state before probing a
    given round.  ``spec`` is anything with ``faults`` and
    ``round_time`` (a shard or a fleet spec); ``resolve_container``
    maps a :class:`ContainerId` target to the replica's live container,
    or ``None`` when it does not exist (a fleet tenant not admitted
    yet) — the injection is then skipped, identically in every replica.
    """

    injector: FaultInjector
    spec: Any
    resolve_container: Callable[[ContainerId], Optional[Container]]
    _active: dict = field(default_factory=dict)
    _next_round: int = 1

    def advance_to(self, round_index: int) -> None:
        """Apply all fault transitions up to (and incl.) the moment just
        before round ``round_index`` probes."""
        for r in range(self._next_round, round_index + 1):
            at = self.spec.round_time(r)
            for idx, fault_spec in enumerate(self.spec.faults):
                if fault_spec.end_round == r and idx in self._active:
                    self.injector.clear(self._active.pop(idx), at)
                if fault_spec.start_round == r:
                    if (
                        fault_spec.end_round is not None
                        and fault_spec.end_round <= fault_spec.start_round
                    ):
                        # Empty interval [start, start): never inject —
                        # injecting here would leave the fault active
                        # forever, since its clear round already passed.
                        continue
                    fault = self._inject(fault_spec, at)
                    if fault is not None:
                        self._active[idx] = fault
        self._next_round = max(self._next_round, round_index + 1)

    def active_faults(self) -> List[Fault]:
        """Currently injected faults, in spec order."""
        return [self._active[i] for i in sorted(self._active)]

    def _inject(
        self, fault_spec: FaultSpec, at: float
    ) -> Optional[Fault]:
        target = fault_spec.target
        if isinstance(target, ContainerId):
            target = self.resolve_container(target)
            if target is None:
                return None
        return self.injector.inject_issue(
            fault_spec.issue_type(),
            target,
            start=at,
            **dict(fault_spec.overrides),
        )
