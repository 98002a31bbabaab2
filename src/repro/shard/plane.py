"""The plane driver: one chunk loop, kill schedule and failover worklist.

Both scale-out planes — :class:`~repro.shard.coordinator.ShardCoordinator`
(one job's pairs over workers) and
:class:`~repro.fleet.coordinator.FleetCoordinator` (whole tenants over
workers) — advance their workers in lockstep chunks of rounds and fail
a dead worker's *units* (pairs or tenant names) over to survivors that
rebuild and replay.  :class:`PlaneDriver` owns everything about that
which does not depend on what a unit is:

* **The chunk loop.**  Every chunk dispatches to all live workers
  first and collects afterwards, so a parallel backend overlaps their
  work.  Live handles are stopped when the loop ends, however it ends.

* **The kill schedule.**  ``{worker_id: chunk}``, chunks 1-based: the
  worker is killed at the start of that chunk (chaos / failover tests).

* **Failover, with one timing rule.**  A scripted kill lands on the
  chunk boundary, so the adopters replay rounds ``1..start-1`` *before*
  the chunk and then run it like everyone else.  A death found at
  dispatch or collect (broken pipe, crashed worker — never a wall-clock
  timeout, which would be nondeterministic) fails over after collection
  with a replay to the chunk's last round.  Either way replay is exact
  — probe outcomes are pure functions of (seed, pair, time) — so an
  adopter ends up indistinguishable from having owned the union from
  round one, and whatever the replay re-reports is dropped by key at
  merge.  Failover is a worklist: an adopter that dies mid-rebuild
  re-orphans its whole set, and running out of survivors raises
  :class:`PlaneError`.

A coordinator supplies only what differs: where orphans go
(:meth:`PlaneDriver._place_orphans`) and how one chunk's results merge
(:meth:`PlaneDriver._merge_chunk`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generic, List, Optional, Sequence, TypeVar

from repro.shard.backend import ShardDeadError, ShardHandle
from repro.sim.metrics import MetricRegistry

__all__ = ["PlaneDriver", "PlaneError", "Reassignment", "WorkerStatus"]


class PlaneError(RuntimeError):
    """The plane cannot make progress (every worker died)."""


@dataclass
class WorkerStatus:
    """The coordinator's live view of one worker."""

    worker_id: int
    #: What the worker owns (pairs or tenant names), sorted.  A dead
    #: worker keeps showing what it owned when it died.
    units: tuple = ()
    alive: bool = True
    chunks_completed: int = 0
    last_round: int = 0
    #: Units taken over from dead workers so far.
    adopted: int = 0


@dataclass(frozen=True)
class Reassignment:
    """One failover move: units of a dead worker landing on a survivor
    that replayed rounds ``1..round_index`` to take them over."""

    chunk: int
    round_index: int
    from_worker: int
    to_worker: int
    units: tuple


#: A plane's status type: :class:`WorkerStatus` or an extension of it.
S = TypeVar("S", bound=WorkerStatus)


class PlaneDriver(Generic[S]):
    """Drives N worker handles to the spec's horizon, chunk by chunk."""

    #: Prefix of the driver's counters (``<scope>.deaths``,
    #: ``<scope>.reassignments``) and recorder events (``<scope>.dead``,
    #: ``<scope>.reassign``).
    scope = "plane"

    def __init__(
        self,
        spec,
        num_workers: int,
        chunk_rounds: int,
        kill_schedule: Optional[Dict[int, int]] = None,
        recorder=None,
    ) -> None:
        if num_workers < 1:
            raise ValueError(
                f"need at least one worker, got {num_workers}"
            )
        if chunk_rounds < 1:
            raise ValueError("chunks must contain at least one round")
        self.spec = spec
        self.num_workers = num_workers
        self.chunk_rounds = chunk_rounds
        self.kill_schedule = dict(kill_schedule or {})
        for worker_id in sorted(self.kill_schedule):
            if not 0 <= worker_id < num_workers:
                raise ValueError(
                    f"kill_schedule worker {worker_id} out of range "
                    f"for {num_workers} workers"
                )
        self.recorder = recorder
        self.metrics = (
            recorder.metrics if recorder is not None else MetricRegistry()
        )
        self.handles: Dict[int, ShardHandle] = {}
        self.statuses: Dict[int, S] = {}
        #: Current ownership, live workers only: a failover pops the
        #: dead worker's entry, so no unit ever has two owners.
        self.owned: Dict[int, tuple] = {}
        self.reassignments: List[Reassignment] = []

    def _add_worker(self, handle: ShardHandle, status: S) -> None:
        self.handles[status.worker_id] = handle
        self.statuses[status.worker_id] = status
        self.owned[status.worker_id] = status.units

    # ------------------------------------------------------------------
    # What a coordinator supplies
    # ------------------------------------------------------------------

    def _place_orphans(
        self, orphaned: tuple, survivors: List[int]
    ) -> Dict[int, list]:
        """Split a dead worker's units over ``survivors``: the units
        each adopter gets (no empty lists)."""
        raise NotImplementedError

    def _merge_chunk(
        self, chunk: int, start: int, end: int, results: list
    ) -> None:
        """Fold one chunk's results (failover replays included)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # The chunk loop
    # ------------------------------------------------------------------

    def _drive(self) -> None:
        """Execute all rounds chunk by chunk, then stop the workers."""
        total = self.spec.total_rounds
        chunk = 0
        start = 1
        try:
            while start <= total:
                chunk += 1
                end = min(start + self.chunk_rounds - 1, total)
                self._run_chunk(chunk, start, end)
                start = end + 1
        finally:
            for worker_id in self._live():
                self.handles[worker_id].stop()

    def _live(self) -> List[int]:
        # Statuses, not ``handle.alive``: handles are stopped when the
        # loop ends and a coordinator may still merge after that.
        return sorted(
            worker_id for worker_id, status in self.statuses.items()
            if status.alive
        )

    def _run_chunk(self, chunk: int, start: int, end: int) -> None:
        results: list = []
        killed = [
            worker_id
            for worker_id, at_chunk in sorted(self.kill_schedule.items())
            if at_chunk == chunk and self.statuses[worker_id].alive
        ]
        for worker_id in killed:
            self.handles[worker_id].kill()
            self._mark_dead(worker_id, start)
        if killed:
            self._failover(chunk, killed, start - 1, results)

        dead: List[int] = []
        dispatched: List[int] = []
        for worker_id in self._live():
            try:
                self.handles[worker_id].begin_chunk(start, end)
                dispatched.append(worker_id)
            except ShardDeadError:
                self._mark_dead(worker_id, start)
                dead.append(worker_id)
        for worker_id in dispatched:
            try:
                result = self._collect(worker_id)
            except ShardDeadError:
                self._mark_dead(worker_id, start)
                dead.append(worker_id)
                continue
            self._heartbeat(worker_id, result, results)
        if dead:
            self._failover(chunk, dead, end, results)
        self._merge_chunk(chunk, start, end, results)

    def _collect(self, worker_id: int):
        """One dispatched worker's chunk result."""
        return self.handles[worker_id].finish_chunk()

    def _heartbeat(self, worker_id: int, result, results: list) -> None:
        status = self.statuses[worker_id]
        status.last_round = max(status.last_round, result.end_round)
        if not result.replayed:
            status.chunks_completed += 1
        results.append(result)

    def _mark_dead(self, worker_id: int, round_index: int) -> None:
        status = self.statuses[worker_id]
        if not status.alive:
            return
        status.alive = False
        self.metrics.increment(f"{self.scope}.deaths")
        if self.recorder is not None:
            self.recorder.event(
                f"{self.scope}.dead",
                sim_time=self.spec.round_time(round_index),
                worker=worker_id,
            )

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------

    def _failover(
        self,
        chunk: int,
        dead: Sequence[int],
        upto_round: int,
        results: list,
    ) -> None:
        """Reassign dead workers' units and replay them on survivors.

        Runs as a worklist: an adopter that dies mid-rebuild re-orphans
        its whole set (original + adopted) on the next pass, so no unit
        is ever left unowned.  Exhausting the survivors raises
        :class:`PlaneError`.
        """
        pending = sorted(set(dead))
        while pending:
            survivors = self._live()
            if not survivors:
                raise PlaneError(
                    f"all {self.scope} workers dead at chunk {chunk}; "
                    f"cannot continue"
                )
            adopters = set()
            for dead_id in pending:
                placed = self._place_orphans(
                    self.owned.pop(dead_id, ()), survivors
                )
                for target, units in sorted(placed.items()):
                    moved = tuple(sorted(units))
                    status = self.statuses[target]
                    status.units = self.owned[target] = tuple(sorted(
                        set(self.owned[target]) | set(moved)
                    ))
                    status.adopted += len(moved)
                    adopters.add(target)
                    self.reassignments.append(Reassignment(
                        chunk=chunk,
                        round_index=upto_round,
                        from_worker=dead_id,
                        to_worker=target,
                        units=moved,
                    ))
                    self.metrics.increment(f"{self.scope}.reassignments")
                    if self.recorder is not None:
                        self.recorder.event(
                            f"{self.scope}.reassign",
                            sim_time=self.spec.round_time(
                                max(upto_round, 1)
                            ),
                            from_worker=dead_id, to_worker=target,
                            units=len(moved),
                        )
            pending = []
            for target in sorted(adopters):
                try:
                    replay = self.handles[target].rebuild(
                        self.owned[target], upto_round
                    )
                except ShardDeadError:
                    self._mark_dead(target, max(upto_round, 1))
                    pending.append(target)
                    continue
                if replay is not None:
                    self._heartbeat(target, replay, results)
