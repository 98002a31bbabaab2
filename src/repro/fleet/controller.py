"""The fleet controller: many tenants, one fabric, one probe budget.

A :class:`FleetController` drives one replica of the shared fabric
through the run's rounds.  Every round it

1. replays the lifecycle plan (admissions / departures / container
   reschedules) and the network-fault schedule against the replica;
2. asks the :class:`~repro.fleet.budget.ProbeBudgetScheduler` to split
   the global probe budget over the admitted tenants; and
3. sends one probing round over every *monitored* tenant's budgeted
   pair window — :func:`~repro.core.probing.run_probe_round`, one
   fabric batch plus its retry waves whatever the tenant count, each
   tenant a probe owner as an agent is — feeds the round's delivered
   rows to the worker's one :class:`~repro.core.analyzer.Analyzer` as
   one batch and flushes it once, and hands each tenant its own open
   incidents for its own localizer and failure handler.

Isolation is per pair: every window, score, fast alarm and incident
the analyzer keeps is one row's, a row is one pair, and a pair's
``src.container.task`` names its tenant — so a tenant's incidents come
out in its own first-probe order whichever other tenants' rows share
the analyzer, exactly as a private analyzer fed only its rows would
give them (``tests/fleet/test_worker_analyzer.py`` holds it to that).
A departing tenant's rows leave the analyzer with it.  Each tenant
keeps a private :class:`~repro.core.localization.Localizer` (batch
stream and ledger of what it localized) fed only its own incidents and
pair universe, and a :class:`~repro.core.handling.Blacklist` scoped by
tenant name (so two tenants blaming the same host hold two distinct
entries — see :mod:`repro.core.handling`).  Verdicts are recorded,
never acted on mid-run: recovery migrations would mutate the shared
fabric based on one tenant's private diagnosis, which a worker that
doesn't monitor that tenant could not replay.  Churn comes only from
the keyed lifecycle schedule, which everyone replays.

``monitor_tenants`` restricts which tenants this controller probes —
the fleet coordinator builds one controller per shard worker, each
covering a disjoint tenant subset, and the same class with
``monitor_tenants=None`` is the single-process reference.  Because
probe outcomes are pairwise-keyed and the lifecycle/fault replay is
identical everywhere, a tenant's event and verdict streams are
bit-identical no matter which worker monitors it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.bus.codec import ReportRows
from repro.cluster.identifiers import TaskId
from repro.core.analyzer import Analyzer, FailureEvent
from repro.core.handling import Blacklist, FailureHandler
from repro.core.localization import Localizer
from repro.core.pinglist import ProbePair
from repro.core.probing import ResilientProber, run_probe_round
from repro.core.resilience import CircuitBreaker
from repro.fleet.budget import (
    BudgetAllocation,
    ProbeBudgetScheduler,
    TenantDemand,
)
from repro.fleet.lifecycle import (
    DEPART,
    FleetLifecyclePlan,
    demand_table,
    plan_lifecycle,
)
from repro.fleet.runtime import FleetReplica, build_fleet_replica
from repro.fleet.spec import FleetSpec, tenant_pairs
from repro.network.packet import ProbeBatch
from repro.shard.monitor import EventRecord
from repro.shard.spec import FaultScheduleRunner, build_monitor_chaos

__all__ = [
    "FleetChunkResult",
    "FleetController",
    "RoundRollup",
    "TenantRuntime",
]

#: One verdict batch in picklable, comparable form:
#: ``(tenant, at, ((component, class, layer, confidence), ...),
#: unexplained_count)``.
VerdictRow = Tuple[str, float, Tuple[Tuple[str, str, str, float], ...],
                   int]


@dataclass
class TenantRuntime:
    """One monitored tenant's private localization and handling, and
    the owner of its budget window in a worker's
    :func:`~repro.core.probing.run_probe_round`."""

    name: str
    #: The tenant's task, which names its pairs (``src.container.task``).
    task: TaskId
    #: The pair universe: canonical pairs in sorted order, as
    #: ``tenant_pairs`` returns them — ``select_pairs`` and
    #: ``probed_pairs`` take both as given.
    pairs: Tuple[ProbePair, ...]
    localizer: Localizer
    handler: FailureHandler
    prober: Optional[ResilientProber] = None
    #: This round's budget window, and how many of its probes were lost.
    window: List[ProbePair] = field(default_factory=list)
    lost: int = 0
    probes_sent: int = 0
    probes_lost: int = 0
    #: Lowest granted per-round coverage while admitted.
    min_coverage: float = 1.0
    #: Distinct pairs probed at least once (cumulative coverage).
    probed_pairs: Set[ProbePair] = field(default_factory=set)
    events: List[Tuple[str, EventRecord]] = field(default_factory=list)
    verdicts: List[VerdictRow] = field(default_factory=list)

    @property
    def blacklist(self) -> Blacklist:
        """The tenant-scoped blacklist behind the failure handler."""
        return self.handler.blacklist

    def plan_round(self, now: float) -> List[ProbePair]:
        """The tenant's share of the round: its budget window."""
        return self.window

    def record_round(
        self, batch: ProbeBatch, now: float, start: int, stop: int,
        rows: ReportRows,
    ) -> None:
        """Count the window's probes and what it lost — its delivered
        reports are rows ``start:stop`` of the round's batch, which the
        worker's analyzer ingests whole (a tenant publishes no
        ``rows``)."""
        self.probes_sent += len(self.window)
        self.probed_pairs.update(self.window)
        self.lost = len(self.window) - int(
            np.count_nonzero(~batch.lost[start:stop])
        )
        self.probes_lost += self.lost

    def cumulative_coverage(self) -> float:
        """Fraction of the pair universe probed at least once."""
        if not self.pairs:
            return 1.0
        return len(self.probed_pairs) / len(self.pairs)


@dataclass(frozen=True)
class RoundRollup:
    """Fleet-wide stats for one round (picklable, bus-publishable)."""

    round_index: int
    sim_time: float
    admitted: Tuple[str, ...]
    budget: int
    granted: int
    #: Per monitored tenant, name-sorted:
    #: ``(name, demand, floor, quota, lost, open_events, blacklisted)``.
    tenant_rows: Tuple[Tuple[str, int, int, int, int, int, int], ...]

    @property
    def utilization(self) -> float:
        """Granted fraction of the round budget."""
        return self.granted / self.budget if self.budget else 0.0


@dataclass(frozen=True)
class FleetChunkResult:
    """One fleet worker's report for a chunk of rounds."""

    worker_id: int
    end_round: int
    #: Fresh failure events this chunk: ``(tenant, record)`` rows.
    events: Tuple[Tuple[str, EventRecord], ...]
    #: Fresh verdict batches this chunk.
    verdicts: Tuple[VerdictRow, ...]
    rollups: Tuple[RoundRollup, ...]
    replayed: bool = False


class FleetController:
    """Drives the multi-tenant monitoring loop over one replica."""

    def __init__(
        self,
        spec: FleetSpec,
        monitor_tenants: Optional[Iterable[str]] = None,
        worker_id: int = 0,
    ) -> None:
        self.spec = spec
        self.worker_id = worker_id
        self.plan: FleetLifecyclePlan = plan_lifecycle(spec)
        self.demands: Dict[str, TenantDemand] = demand_table(spec)
        self.scheduler = ProbeBudgetScheduler(
            spec.probe_budget_per_round
        )
        all_names = [tenant.name for tenant in spec.tenants]
        if monitor_tenants is None:
            self.monitor_tenants: Tuple[str, ...] = tuple(all_names)
        else:
            wanted = set(monitor_tenants)
            unknown = wanted - set(all_names)
            if unknown:
                raise KeyError(
                    f"unknown tenants {sorted(unknown)!r}"
                )
            self.monitor_tenants = tuple(
                name for name in all_names if name in wanted
            )
        self.rounds_completed = 0
        self._build()

    # ------------------------------------------------------------------
    # Replica construction / rebuild (failover)
    # ------------------------------------------------------------------

    def _build(self) -> None:
        self.replica: FleetReplica = build_fleet_replica(self.spec)
        self.faults = FaultScheduleRunner(
            self.replica.injector, self.spec, self.replica.container_of
        )
        # A FleetSpec carries the seed / monitor_faults / round_time
        # surface the shard plane's pinned-id builder reads; pinning
        # each fault id to its spec index keeps chaos draws
        # byte-identical across rebuilt replicas.
        self.chaos = build_monitor_chaos(self.spec)
        #: Every monitored tenant's rows, in one analyzer.
        self.analyzer = Analyzer(config=self.spec.detector)
        self.tenants: Dict[str, TenantRuntime] = {}
        self.allocations: List[BudgetAllocation] = []
        self.rollups: List[RoundRollup] = []
        self.rounds_completed = 0
        # Chunk-fresh buffers, drained by run_rounds.
        self._chunk_events: List[Tuple[str, EventRecord]] = []
        self._chunk_verdicts: List[VerdictRow] = []
        self._chunk_rollups: List[RoundRollup] = []

    def _tenant_runtime(self, name: str) -> TenantRuntime:
        runtime = self.tenants.get(name)
        if runtime is not None:
            return runtime
        task = self.spec.task_id_of(name)
        blacklist = Blacklist(scope=name)
        runtime = TenantRuntime(
            name=name,
            task=task,
            pairs=tuple(tenant_pairs(self.spec.tenant(name), task)),
            localizer=Localizer(
                self.replica.cluster, self.replica.fabric,
            ),
            handler=FailureHandler(blacklist=blacklist),
            prober=(
                None if self.chaos is None else ResilientProber(
                    self.chaos, breaker=CircuitBreaker()
                )
            ),
        )
        self.tenants[name] = runtime
        return runtime

    # ------------------------------------------------------------------
    # Round loop
    # ------------------------------------------------------------------

    def run_rounds(
        self, start_round: int, end_round: int, replayed: bool = False
    ) -> FleetChunkResult:
        """Run rounds ``start_round..end_round`` inclusive and report."""
        if start_round != self.rounds_completed + 1:
            raise ValueError(
                f"fleet worker {self.worker_id} is at round "
                f"{self.rounds_completed}, cannot start at {start_round}"
            )
        for round_index in range(start_round, end_round + 1):
            self._run_round(round_index)
        result = FleetChunkResult(
            worker_id=self.worker_id,
            end_round=end_round,
            events=tuple(self._chunk_events),
            verdicts=tuple(self._chunk_verdicts),
            rollups=tuple(self._chunk_rollups),
            replayed=replayed,
        )
        self._chunk_events = []
        self._chunk_verdicts = []
        self._chunk_rollups = []
        return result

    def _run_round(self, round_index: int) -> None:
        spec = self.spec
        at = spec.round_time(round_index)
        # 1. World transitions, identically replayed by every worker;
        #    a departed tenant's rows leave the analyzer (it never
        #    returns, and nothing reads its incidents again).
        transitions = self.plan.events_at(round_index)
        self.replica.apply_lifecycle(transitions)
        for event in transitions:
            if event.kind == DEPART and event.tenant in self.tenants:
                pairs = self.tenants[event.tenant].pairs
                self.analyzer.reset_pairs_involving(
                    {end for pair in pairs for end in (pair.src, pair.dst)},
                    at,
                )
        self.faults.advance_to(round_index)
        self.replica.engine.run_until(at)
        # 2. Budget split across everyone admitted (monitored or not:
        #    the allocation must be the global one so each worker's
        #    quota matches the single-process reference).
        admitted = self.plan.admitted_at(round_index)
        allocation = self.scheduler.allocate(
            round_index, [self.demands[name] for name in admitted]
        )
        self.allocations.append(allocation)
        # 3. One probing round over the monitored tenants' budget
        #    windows (a tenant with an empty one sits it out), one
        #    analyzer pass over its delivered rows, then each tenant's
        #    own diagnosis.
        runtimes = [
            self._tenant_runtime(name) for name in admitted
            if name in self.monitor_tenants
        ]
        for runtime in runtimes:
            runtime.window = self.scheduler.select_pairs(
                runtime.pairs, allocation.quota_of(runtime.name),
                round_index,
            )
            runtime.lost = 0
        self.analyzer.ingest_batch(run_probe_round(
            [runtime for runtime in runtimes if runtime.window],
            self.replica.fabric, at, spec.round_time(round_index + 1),
        ))
        self.analyzer.flush(at)
        tenant_rows = []
        for runtime in runtimes:
            quota = allocation.quota_of(runtime.name)
            demand = self.demands[runtime.name]
            if demand.demand > 0:
                runtime.min_coverage = min(
                    runtime.min_coverage, quota / demand.demand
                )
            open_events = self.open_events(runtime.name)
            self._diagnose(runtime, open_events, at)
            tenant_rows.append((
                runtime.name, demand.demand, demand.floor, quota,
                runtime.lost, len(open_events),
                len(runtime.blacklist.active()),
            ))
        rollup = RoundRollup(
            round_index=round_index,
            sim_time=at,
            admitted=admitted,
            budget=allocation.budget,
            granted=allocation.total_granted,
            tenant_rows=tuple(sorted(tenant_rows)),
        )
        self.rollups.append(rollup)
        self._chunk_rollups.append(rollup)
        self.rounds_completed = round_index

    def open_events(self, name: str) -> List[FailureEvent]:
        """The monitored tenant ``name``'s open incidents: those on the
        pairs its task names, in the order the analyzer opened them."""
        task = self.tenants[name].task
        return [
            event for event in self.analyzer.open_events()
            if event.pair.src.container.task == task
        ]

    def _diagnose(
        self, runtime: TenantRuntime, open_events: List[FailureEvent],
        at: float,
    ) -> None:
        """Run the localization step over the tenant's own open
        incidents and report what it found fresh.

        Only tenant-local inputs feed the localizer — its own events,
        its own pair universe — so the verdict stream is identical no
        matter which worker computes it, and one tenant's incidents
        can never enter another tenant's vote tables.
        """
        fresh, report = runtime.localizer.localize_open(
            open_events, lambda fresh: runtime.pairs, at,
        )
        if report is None:
            return
        for event in fresh:
            row = (runtime.name, EventRecord.of(event))
            runtime.events.append(row)
            self._chunk_events.append(row)
        runtime.handler.handle(at, report)
        verdict: VerdictRow = (runtime.name, at, *report.verdict_row())
        runtime.verdicts.append(verdict)
        self._chunk_verdicts.append(verdict)

    # ------------------------------------------------------------------
    # Failover adoption
    # ------------------------------------------------------------------

    def adopt(
        self, tenants: Iterable[str], upto_round: int
    ) -> Optional[FleetChunkResult]:
        """Take over ``tenants`` from a dead worker.

        Rebuilds a fresh replica monitoring the union tenant set and
        replays rounds ``1..upto_round`` — probe outcomes are pure in
        (seed, pair, time) and the lifecycle plan is pure in the spec,
        so after the replay this controller's per-tenant state is
        identical to having monitored the union from round one.
        """
        merged = set(self.monitor_tenants) | set(tenants)
        ordered = [
            tenant.name for tenant in self.spec.tenants
            if tenant.name in merged
        ]
        self.monitor_tenants = tuple(ordered)
        self._build()
        if upto_round < 1:
            return None
        return self.run_rounds(1, upto_round, replayed=True)

    # ------------------------------------------------------------------
    # Summaries (comparable across shard counts)
    # ------------------------------------------------------------------

    def event_summary(
        self,
    ) -> List[Tuple[str, str, str, float, str]]:
        """Every tenant event as comparable rows, sorted."""
        rows = []
        for name in self.monitor_tenants:
            runtime = self.tenants.get(name)
            if runtime is None:
                continue
            for _, record in runtime.events:
                rows.append((
                    name, str(record.src), str(record.dst),
                    record.first_detected_at, record.symptom,
                ))
        return sorted(rows)

    def verdict_summary(self) -> List[VerdictRow]:
        """Every verdict batch as comparable rows, sorted."""
        rows: List[VerdictRow] = []
        for name in self.monitor_tenants:
            runtime = self.tenants.get(name)
            if runtime is None:
                continue
            rows.extend(runtime.verdicts)
        return sorted(rows)

    def blacklist_summary(self) -> List[Tuple[str, str]]:
        """Active ``(tenant, component)`` blacklist rows, sorted."""
        rows = []
        for name in self.monitor_tenants:
            runtime = self.tenants.get(name)
            if runtime is None:
                continue
            for component in runtime.blacklist.active():
                rows.append((name, component))
        return sorted(rows)

    def coverage_summary(
        self,
    ) -> List[Tuple[str, float, float]]:
        """Per tenant: ``(name, min round coverage, cumulative)``."""
        rows = []
        for name in self.monitor_tenants:
            runtime = self.tenants.get(name)
            if runtime is None:
                continue
            rows.append((
                name,
                round(runtime.min_coverage, 9),
                round(runtime.cumulative_coverage(), 9),
            ))
        return sorted(rows)
