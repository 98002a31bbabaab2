"""The fleet controller: many tenants, one fabric, one probe budget.

A :class:`FleetController` drives one replica of the shared fabric
through the run's rounds.  Every round it

1. replays the lifecycle plan (admissions / departures / container
   reschedules) and the network-fault schedule against the replica;
2. asks the :class:`~repro.fleet.budget.ProbeBudgetScheduler` to split
   the global probe budget over the admitted tenants; and
3. for each *monitored* tenant, probes that tenant's budgeted pair
   window and feeds the results through the tenant's **own** analyzer,
   localizer, and failure handler.

Per-tenant isolation is structural, not cooperative: each tenant gets
a private :class:`~repro.core.analyzer.Analyzer` (so one tenant's
anomaly windows never mix with another's), a private
:class:`~repro.core.localization.Localizer` batch stream, and a
:class:`~repro.core.handling.Blacklist` scoped by tenant name (so two
tenants blaming the same host hold two distinct entries — see
satellite work in :mod:`repro.core.handling`).  Verdicts are recorded,
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

from repro.core.analyzer import Analyzer
from repro.core.handling import Blacklist, FailureHandler
from repro.core.localization import Localizer
from repro.core.pinglist import ProbePair
from repro.core.probing import ResilientProber, send_round
from repro.core.resilience import CircuitBreaker
from repro.fleet.budget import (
    BudgetAllocation,
    ProbeBudgetScheduler,
    TenantDemand,
)
from repro.fleet.lifecycle import (
    FleetLifecyclePlan,
    demand_table,
    plan_lifecycle,
)
from repro.fleet.runtime import FleetReplica, build_fleet_replica
from repro.fleet.spec import FleetSpec, tenant_pairs
from repro.shard.monitor import (
    EventRecord,
    collect_fresh_records,
    localize_records,
)
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
    """One monitored tenant's private diagnosis pipeline."""

    name: str
    #: The pair universe: canonical pairs in sorted order, as
    #: ``tenant_pairs`` returns them — ``select_pairs`` and
    #: ``probed_pairs`` take both as given.
    pairs: Tuple[ProbePair, ...]
    analyzer: Analyzer
    localizer: Localizer
    handler: FailureHandler
    prober: Optional[ResilientProber] = None
    probes_sent: int = 0
    probes_lost: int = 0
    #: Lowest granted per-round coverage while admitted.
    min_coverage: float = 1.0
    #: Distinct pairs probed at least once (cumulative coverage).
    probed_pairs: Set[ProbePair] = field(default_factory=set)
    _reported: Set[Tuple[ProbePair, float]] = field(default_factory=set)
    events: List[Tuple[str, EventRecord]] = field(default_factory=list)
    verdicts: List[VerdictRow] = field(default_factory=list)

    @property
    def blacklist(self) -> Blacklist:
        """The tenant-scoped blacklist behind the failure handler."""
        return self.handler.blacklist

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
    start_round: int
    end_round: int
    sim_time: float
    tenant_names: Tuple[str, ...]
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
        tenant = self.spec.tenant(name)
        pairs = tuple(
            tenant_pairs(tenant, self.spec.task_id_of(name))
        )
        blacklist = Blacklist(scope=name)
        runtime = TenantRuntime(
            name=name,
            pairs=pairs,
            analyzer=Analyzer(config=self.spec.detector),
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
            start_round=start_round,
            end_round=end_round,
            sim_time=self.spec.round_time(end_round),
            tenant_names=tuple(self.monitor_tenants),
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
        # 1. World transitions, identically replayed by every worker.
        self.replica.apply_lifecycle(
            self.plan.events_at(round_index)
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
        # 3. Per-tenant probing + diagnosis for monitored tenants.
        tenant_rows = []
        for name in admitted:
            if name not in self.monitor_tenants:
                continue
            runtime = self._tenant_runtime(name)
            quota = allocation.quota_of(name)
            floor = self.demands[name].floor
            demand = self.demands[name].demand
            if demand > 0:
                runtime.min_coverage = min(
                    runtime.min_coverage, quota / demand
                )
            lost = self._probe_tenant(runtime, quota, round_index, at)
            self._diagnose(runtime)
            tenant_rows.append((
                name, demand, floor, quota, lost,
                len(runtime.analyzer.open_events()),
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

    def _probe_tenant(
        self,
        runtime: TenantRuntime,
        quota: int,
        round_index: int,
        at: float,
    ) -> int:
        """Probe the tenant's budget window; returns lost-probe count."""
        selected = self.scheduler.select_pairs(
            runtime.pairs, quota, round_index
        )
        if not selected:
            return 0
        results, [(failed, retried)] = send_round(
            self.replica.fabric, [selected], [runtime.prober], at
        )
        if runtime.prober is not None:
            runtime.prober.settle(at, len(results), failed, retried)
        runtime.analyzer.ingest_batch(results)
        runtime.analyzer.flush(at)
        runtime.probes_sent += len(selected)
        runtime.probed_pairs.update(selected)
        lost = len(selected) - int(np.count_nonzero(~results.lost))
        runtime.probes_lost += lost
        return lost

    def _diagnose(self, runtime: TenantRuntime) -> None:
        """Report the tenant's fresh events and localize them.

        Only tenant-local inputs feed the localizer — its own events,
        its own healthy pairs — so the verdict stream is identical no
        matter which worker computes it, and one tenant's incidents
        can never enter another tenant's vote tables.
        """
        fresh = collect_fresh_records(runtime.analyzer, runtime._reported)
        for record in fresh:
            runtime.events.append((runtime.name, record))
            self._chunk_events.append((runtime.name, record))
        for at, _, report in localize_records(
            runtime.localizer, fresh, runtime.pairs
        ):
            runtime.handler.handle(at, report)
            row: VerdictRow = (runtime.name, at, *report.verdict_row())
            runtime.verdicts.append(row)
            self._chunk_verdicts.append(row)

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
