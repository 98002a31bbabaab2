"""The fleet coordinator: tenants sharded over parallel fleet workers.

Scales the :class:`~repro.fleet.controller.FleetController` loop the
same way the shard plane scales a single job's pair list — except the
unit of placement is a whole *tenant*: a tenant's pairs, analyzer, and
localizer stay on one worker, so its diagnosis stream is self-contained
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

Failover follows the shard plane's shape: a worker killed by the
schedule has its tenants reassigned to the least-loaded survivors,
each of which rebuilds with the union tenant set and replays rounds
``1..r`` (:meth:`FleetController.adopt`).  Replayed incidents are
deduplicated by event key per tenant.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.fleet.budget import ProbeBudgetScheduler, TenantDemand
from repro.fleet.controller import (
    FleetChunkResult,
    FleetController,
    RoundRollup,
    VerdictRow,
)
from repro.fleet.lifecycle import demand_table
from repro.fleet.spec import FleetSpec
from repro.shard.partition import TenantPlacement, place_tenants

__all__ = [
    "FleetPlaneError",
    "FleetRunResult",
    "FleetCoordinator",
    "FleetWorkerStatus",
    "TenantReassignment",
]


class FleetPlaneError(RuntimeError):
    """The fleet plane cannot make progress (all workers dead)."""


@dataclass
class FleetWorkerStatus:
    """Liveness and progress of one fleet worker."""

    worker_id: int
    tenants: Tuple[str, ...]
    alive: bool = True
    rounds_completed: int = 0
    chunks_completed: int = 0
    adopted_tenants: int = 0


@dataclass(frozen=True)
class TenantReassignment:
    """Tenants moved from a dead worker to a survivor."""

    chunk: int
    round_index: int
    from_worker: int
    to_worker: int
    tenants: Tuple[str, ...]


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
    probes_sent: int
    probes_lost: int
    reassignments: Tuple[TenantReassignment, ...]
    #: Tenants admission control rejected, with reasons.
    rejections: Tuple[Tuple[str, str], ...]
    #: Wall-clock seconds each worker spent probing (steady state).
    worker_seconds: Tuple[Tuple[int, float], ...]
    #: Sum over chunks of the busiest worker's chunk time — the round
    #: latency a truly parallel deployment would see.
    critical_path_seconds: float
    #: Wall-clock seconds spent in failover replays (not steady state).
    replay_seconds: float

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
        }


class FleetCoordinator:
    """Drives N fleet workers to the run horizon, merging results."""

    def __init__(
        self,
        spec: FleetSpec,
        num_workers: int = 1,
        chunk_rounds: Optional[int] = None,
        kill_schedule: Optional[Dict[int, int]] = None,
        recorder=None,
        bus=None,
    ) -> None:
        if num_workers < 1:
            raise ValueError(
                f"need at least one worker, got {num_workers}"
            )
        self.spec = spec
        self.num_workers = num_workers
        self.chunk_rounds = chunk_rounds or spec.chunk_rounds
        #: ``{chunk_index: worker_id}`` — kill the worker just before
        #: that chunk runs (chunks are 0-based).
        self.kill_schedule = dict(kill_schedule or {})
        for chunk in sorted(self.kill_schedule):
            worker_id = self.kill_schedule[chunk]
            if not 0 <= worker_id < num_workers:
                raise ValueError(
                    f"kill_schedule worker {worker_id} (chunk {chunk}) "
                    f"out of range for {num_workers} workers"
                )
        self.recorder = recorder
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
        self.statuses: Dict[int, FleetWorkerStatus] = {}
        self._tenants_of: Dict[int, Tuple[str, ...]] = {}
        for worker_id in range(num_workers):
            tenants = self.placement.tenants_of(worker_id)
            self.workers[worker_id] = FleetController(
                spec,
                monitor_tenants=tenants,
                worker_id=worker_id,
            )
            self._tenants_of[worker_id] = tenants
            self.statuses[worker_id] = FleetWorkerStatus(
                worker_id=worker_id, tenants=tenants
            )
        self.reassignments: List[TenantReassignment] = []
        self.chunk_results: List[FleetChunkResult] = []
        self._worker_seconds: Dict[int, float] = {
            worker_id: 0.0 for worker_id in range(num_workers)
        }
        self._critical_path_seconds = 0.0
        self._replay_seconds = 0.0
        self._published_rounds = 0
        self._seen_events: Dict[str, Set[tuple]] = {}

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------

    def run(self) -> FleetRunResult:
        """Run every chunk to the spec horizon and merge the results."""
        total = self.spec.total_rounds
        chunk = 0
        start = 1
        while start <= total:
            end = min(total, start + self.chunk_rounds - 1)
            self._run_chunk(chunk, start, end)
            chunk += 1
            start = end + 1
        return self._merge()

    def _live_workers(self) -> List[int]:
        return sorted(
            worker_id for worker_id, status in self.statuses.items()
            if status.alive
        )

    def _run_chunk(self, chunk: int, start: int, end: int) -> None:
        victim = self.kill_schedule.get(chunk)
        if victim is not None and self.statuses[victim].alive:
            self._kill(victim, chunk, start)
        chunk_max = 0.0
        for worker_id in self._live_workers():
            worker = self.workers[worker_id]
            began = time.perf_counter()
            result = worker.run_rounds(start, end)
            elapsed = time.perf_counter() - began
            self._worker_seconds[worker_id] += elapsed
            chunk_max = max(chunk_max, elapsed)
            self._ingest(result)
            status = self.statuses[worker_id]
            status.rounds_completed = end
            status.chunks_completed += 1
        self._critical_path_seconds += chunk_max
        self._publish_chunk(chunk, end)

    def _kill(self, victim: int, chunk: int, start: int) -> None:
        """Kill a worker and reassign its tenants before the chunk."""
        status = self.statuses[victim]
        status.alive = False
        orphaned = list(self._tenants_of.pop(victim, ()))
        if self.recorder is not None:
            self.recorder.event(
                "fleet.worker_dead",
                sim_time=self.spec.round_time(max(start - 1, 1)),
                worker=victim,
                tenants=len(orphaned),
            )
        if not orphaned:
            return
        survivors = self._live_workers()
        if not survivors:
            raise FleetPlaneError(
                f"all fleet workers dead at chunk {chunk}; "
                f"cannot continue"
            )
        # Heaviest orphaned tenant first onto the least-loaded
        # survivor — the same LPT rule initial placement used.
        loads = {
            worker_id: sum(
                self.demands[name].demand
                for name in self._tenants_of[worker_id]
            )
            for worker_id in survivors
        }
        additions: Dict[int, List[str]] = {
            worker_id: [] for worker_id in survivors
        }
        for name in sorted(
            orphaned,
            key=lambda n: (-self.demands[n].demand, n),
        ):
            target = min(
                survivors, key=lambda w: (loads[w], w)
            )
            additions[target].append(name)
            loads[target] += self.demands[name].demand
        upto = start - 1
        for target in survivors:
            if not additions[target]:
                continue
            adopted = tuple(sorted(additions[target]))
            began = time.perf_counter()
            replay = self.workers[target].adopt(adopted, upto)
            self._replay_seconds += time.perf_counter() - began
            if replay is not None:
                self._ingest(replay)
            self._tenants_of[target] = tuple(sorted(
                set(self._tenants_of[target]) | set(adopted)
            ))
            target_status = self.statuses[target]
            target_status.tenants = self._tenants_of[target]
            target_status.adopted_tenants += len(adopted)
            self.reassignments.append(TenantReassignment(
                chunk=chunk,
                round_index=upto,
                from_worker=victim,
                to_worker=target,
                tenants=adopted,
            ))
            if self.recorder is not None:
                self.recorder.event(
                    "fleet.reassign",
                    sim_time=self.spec.round_time(max(upto, 1)),
                    from_worker=victim,
                    to_worker=target,
                    tenants=len(adopted),
                )

    def _ingest(self, result: FleetChunkResult) -> None:
        """Record a chunk result, deduplicating replayed incidents."""
        if result.replayed:
            # Keep only events/verdicts the plane has not seen — an
            # adopter's replay re-detects everything the dead worker
            # already reported.
            fresh_events = tuple(
                (tenant, record)
                for tenant, record in result.events
                if record.key not in self._seen_events.get(tenant, set())
            )
            result = FleetChunkResult(
                worker_id=result.worker_id,
                start_round=result.start_round,
                end_round=result.end_round,
                sim_time=result.sim_time,
                tenant_names=result.tenant_names,
                probes_sent=0,      # replayed probes are not new work
                probes_lost=0,
                events=fresh_events,
                verdicts=result.verdicts,
                rollups=(),         # steady-state rollups already kept
                replayed=True,
            )
        for tenant, record in result.events:
            self._seen_events.setdefault(tenant, set()).add(record.key)
        self.chunk_results.append(result)

    def _publish_chunk(self, chunk: int, end_round: int) -> None:
        if self.recorder is not None:
            self.recorder.metrics.increment("fleet.chunks")
        if self.bus is None:
            return
        from repro.bus.core import Topic

        merged = self._merged_rollups()
        for rollup in merged:
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
                workers=len(self._live_workers()),
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
        for worker_id in self._live_workers():
            worker = self.workers[worker_id]
            events.extend(worker.event_summary())
            verdicts.extend(worker.verdict_summary())
            blacklists.extend(worker.blacklist_summary())
            coverage.extend(worker.coverage_summary())
        live = self._live_workers()
        plan = self.workers[live[0]].plan if live else None
        return FleetRunResult(
            num_workers=self.num_workers,
            total_rounds=self.spec.total_rounds,
            event_summary=tuple(sorted(events)),
            verdict_summary=tuple(sorted(verdicts)),
            blacklist_summary=tuple(sorted(blacklists)),
            coverage_summary=tuple(sorted(coverage)),
            rollups=tuple(self._merged_rollups()),
            probes_sent=sum(
                r.probes_sent for r in self.chunk_results
            ),
            probes_lost=sum(
                r.probes_lost for r in self.chunk_results
            ),
            reassignments=tuple(self.reassignments),
            rejections=(
                plan.rejections if plan is not None else ()
            ),
            worker_seconds=tuple(sorted(
                self._worker_seconds.items()
            )),
            critical_path_seconds=self._critical_path_seconds,
            replay_seconds=self._replay_seconds,
        )
