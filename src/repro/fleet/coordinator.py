"""The fleet coordinator: tenants sharded over parallel fleet workers.

Scales the :class:`~repro.fleet.controller.FleetController` loop the
same way the shard plane scales a single job's pair list — except the
unit of placement is a whole *tenant*: a tenant's pairs, their rows in
the worker's analyzer, and its localizer stay on one worker, so its
diagnosis stream is self-contained
and the coordinator's merge is a disjoint union (no cross-worker vote
table needed).  Tenants are placed by probe-pair demand with the LPT
balancer (:func:`repro.shard.partition.place_tenants`); the fleet
round's critical path is the busiest worker, which is exactly the
makespan LPT minimizes.

Every worker replays the full lifecycle and fault schedule against its
own replica (fabric state identical everywhere) but probes only its
tenants — so per-tenant results are bit-identical no matter how many
workers the fleet runs on, which
:mod:`repro.fleet.equivalence` gates directly.

The chunk loop, the kill schedule and failover are the plane driver's
(:mod:`repro.shard.plane`, shared with the shard plane): a dead
worker's tenants go heaviest-first onto the least-loaded survivors,
each of which rebuilds with the union tenant set and replays from round
one (:meth:`FleetController.adopt`).  Replayed incidents are
deduplicated by event key per tenant.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.bus.core import Topic
from repro.fleet.budget import ProbeBudgetScheduler, TenantDemand
from repro.fleet.controller import (
    FleetChunkResult,
    FleetController,
    RoundRollup,
    VerdictRow,
)
from repro.fleet.lifecycle import demand_table
from repro.fleet.spec import FleetSpec
from repro.shard.backend import InProcessHandle
from repro.shard.partition import TenantPlacement, place_tenants
from repro.shard.plane import PlaneDriver, Reassignment, WorkerStatus

__all__ = ["FleetRunResult", "FleetCoordinator"]


@dataclass(frozen=True)
class FleetRunResult:
    """The merged outcome of a fleet run (comparable across shapes)."""

    num_workers: int
    total_rounds: int
    #: ``(tenant, src, dst, first_detected_at, symptom)`` rows, sorted.
    event_summary: Tuple[Tuple[str, str, str, float, str], ...]
    #: Per-tenant verdict batches, sorted.
    verdict_summary: Tuple[VerdictRow, ...]
    #: Active ``(tenant, component)`` blacklist rows, sorted.
    blacklist_summary: Tuple[Tuple[str, str], ...]
    #: ``(tenant, min round coverage, cumulative coverage)``, sorted.
    coverage_summary: Tuple[Tuple[str, float, float], ...]
    #: Fleet-wide rollups, one per round, tenant rows merged.
    rollups: Tuple[RoundRollup, ...]
    #: Probes the surviving workers' tenants sent / lost over rounds
    #: ``1..total_rounds`` (adopters replay from round one, so the sum
    #: does not depend on the failover history).
    probes_sent: int
    probes_lost: int
    #: Failover moves; ``units`` are tenant names.
    reassignments: Tuple[Reassignment, ...]
    #: Tenants admission control rejected, with reasons.
    rejections: Tuple[Tuple[str, str], ...]
    #: Sum over chunks of the busiest worker's chunk time — the round
    #: latency a truly parallel deployment would see.
    critical_path_seconds: float

    def comparable(self) -> Dict[str, tuple]:
        """Everything that must match across worker counts/failover,
        as named row streams."""
        return {
            "events": self.event_summary,
            "verdicts": self.verdict_summary,
            "blacklists": self.blacklist_summary,
            "coverage": self.coverage_summary,
            "rollups": self.rollups,
            "rejections": self.rejections,
            "probes": ((self.probes_sent, self.probes_lost),),
        }


class FleetCoordinator(PlaneDriver[WorkerStatus]):
    """Drives N fleet workers to the run horizon, merging results."""

    scope = "fleet"

    def __init__(
        self,
        spec: FleetSpec,
        num_workers: int = 1,
        kill_schedule: Optional[Dict[int, int]] = None,
        recorder=None,
        bus=None,
    ) -> None:
        super().__init__(
            spec, num_workers, spec.chunk_rounds, kill_schedule, recorder
        )
        self.bus = bus
        self.demands: Dict[str, TenantDemand] = demand_table(spec)
        # Balance workers by what each tenant will actually *probe*
        # per round — its steady-state granted quota with everyone
        # admitted — not its raw demand: coverage floors and weights
        # skew quotas, and the busiest worker is the round's critical
        # path.
        scheduler = ProbeBudgetScheduler(spec.probe_budget_per_round)
        steady = scheduler.allocate(
            1, sorted(self.demands.values(), key=lambda d: d.name)
        )
        weights = {
            name: max(1, steady.quota_of(name))
            for name in self.demands
        }
        self.placement: TenantPlacement = place_tenants(
            weights, num_workers
        )
        self.workers: Dict[int, FleetController] = {}
        for worker_id in range(num_workers):
            tenants = self.placement.tenants_of(worker_id)
            self.workers[worker_id] = FleetController(
                spec,
                monitor_tenants=tenants,
                worker_id=worker_id,
            )
            self._add_worker(
                InProcessHandle(worker_id, self.workers[worker_id]),
                WorkerStatus(worker_id=worker_id, units=tenants),
            )
        self.chunk_results: List[FleetChunkResult] = []
        self._chunk_seconds = 0.0
        self._critical_path_seconds = 0.0
        self._published_rounds = 0
        self._seen_events: Dict[str, Set[tuple]] = {}

    def run(self) -> FleetRunResult:
        """Run every chunk to the spec horizon and merge the results."""
        self._drive()
        return self._merge()

    def _place_orphans(
        self, orphaned: tuple, survivors: List[int]
    ) -> Dict[int, list]:
        """Heaviest orphaned tenant first onto the least-loaded
        survivor — the same LPT rule initial placement used."""
        loads = {
            worker_id: sum(
                self.demands[name].demand
                for name in self.owned[worker_id]
            )
            for worker_id in survivors
        }
        placed: Dict[int, list] = {}
        for name in sorted(
            orphaned, key=lambda n: (-self.demands[n].demand, n)
        ):
            target = min(survivors, key=lambda w: (loads[w], w))
            placed.setdefault(target, []).append(name)
            loads[target] += self.demands[name].demand
        return placed

    def _collect(self, worker_id: int) -> FleetChunkResult:
        began = time.perf_counter()
        result = super()._collect(worker_id)
        self._chunk_seconds = max(
            self._chunk_seconds, time.perf_counter() - began
        )
        return result

    def _merge_chunk(
        self, chunk: int, start: int, end: int, results: list
    ) -> None:
        for result in results:
            self._ingest(result)
        self._critical_path_seconds += self._chunk_seconds
        self._chunk_seconds = 0.0
        self._publish_chunk()

    def _ingest(self, result: FleetChunkResult) -> None:
        """Record a chunk result, deduplicating replayed incidents."""
        if result.replayed:
            # Keep only the events the plane has not seen — an
            # adopter's replay re-detects everything the dead worker
            # already reported.  Its rollups stay: a worker that died
            # mid-chunk never reported that chunk's rows, and
            # ``_merged_rollups`` unions rows as a set.
            result = replace(result, events=tuple(
                (tenant, record)
                for tenant, record in result.events
                if record.key not in self._seen_events.get(tenant, set())
            ))
        for tenant, record in result.events:
            self._seen_events.setdefault(tenant, set()).add(record.key)
        self.chunk_results.append(result)

    def _publish_chunk(self) -> None:
        self.metrics.increment("fleet.chunks")
        if self.bus is None:
            return
        for rollup in self._merged_rollups():
            if rollup.round_index <= self._published_rounds:
                continue
            self._published_rounds = rollup.round_index
            self.bus.publish(
                Topic.FLEET,
                sim_time=rollup.sim_time,
                round=rollup.round_index,
                admitted=list(rollup.admitted),
                budget=rollup.budget,
                granted=rollup.granted,
                utilization=round(rollup.utilization, 6),
                workers=len(self._live()),
                tenants=[
                    {
                        "name": row[0], "demand": row[1],
                        "floor": row[2], "quota": row[3],
                        "lost": row[4], "open_events": row[5],
                        "blacklisted": row[6],
                    }
                    for row in rollup.tenant_rows
                ],
            )

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------

    def _merged_rollups(self) -> List[RoundRollup]:
        """Union the workers' per-round rollups (disjoint tenants)."""
        by_round: Dict[int, List[RoundRollup]] = {}
        for result in self.chunk_results:
            for rollup in result.rollups:
                by_round.setdefault(rollup.round_index, []).append(
                    rollup
                )
        merged: List[RoundRollup] = []
        for round_index in sorted(by_round):
            parts = by_round[round_index]
            first = parts[0]
            rows: List[tuple] = []
            for part in parts:
                rows.extend(part.tenant_rows)
            merged.append(RoundRollup(
                round_index=round_index,
                sim_time=first.sim_time,
                admitted=first.admitted,
                budget=first.budget,
                granted=first.granted,
                tenant_rows=tuple(sorted(set(rows))),
            ))
        return merged

    def _merge(self) -> FleetRunResult:
        events: List[Tuple[str, str, str, float, str]] = []
        verdicts: List[VerdictRow] = []
        blacklists: List[Tuple[str, str]] = []
        coverage: List[Tuple[str, float, float]] = []
        runtimes = []
        for worker_id in self._live():
            worker = self.workers[worker_id]
            events.extend(worker.event_summary())
            verdicts.extend(worker.verdict_summary())
            blacklists.extend(worker.blacklist_summary())
            coverage.extend(worker.coverage_summary())
            runtimes.extend(worker.tenants.values())
        return FleetRunResult(
            num_workers=self.num_workers,
            total_rounds=self.spec.total_rounds,
            event_summary=tuple(sorted(events)),
            verdict_summary=tuple(sorted(verdicts)),
            blacklist_summary=tuple(sorted(blacklists)),
            coverage_summary=tuple(sorted(coverage)),
            rollups=tuple(self._merged_rollups()),
            probes_sent=sum(rt.probes_sent for rt in runtimes),
            probes_lost=sum(rt.probes_lost for rt in runtimes),
            reassignments=tuple(self.reassignments),
            # The lifecycle plan is pure in the spec: every worker,
            # dead or alive, holds the same one.
            rejections=self.workers[0].plan.rejections,
            critical_path_seconds=self._critical_path_seconds,
        )
