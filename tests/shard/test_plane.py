"""The plane driver at its boundaries — bare, and under both planes.

Steady state is everyone else's job; these tests are about the chunk
where something dies: which rounds the adopters replay, who owns what
afterwards, and that the merged run still equals the single-worker
baseline whether the death was scripted, found at dispatch, found at
collect, or struck an adopter in the middle of taking over.
"""

import itertools
from dataclasses import dataclass

import pytest

from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.spec import TenantSpec
from repro.obs.trace import TraceRecorder
from repro.shard import (
    PlaneDriver,
    PlaneError,
    ShardCoordinator,
    ShardDeadError,
    WorkerStatus,
)
from repro.shard.backend import InProcessHandle

from tests.fleet.conftest import small_fleet_spec
from tests.shard.conftest import small_spec


def die_on(handle, method, nth):
    """Make ``handle`` crash inside its ``nth`` call of ``method`` —
    the ``DyingAdopterBackend`` idea, applied to any handle."""
    original = getattr(handle, method)
    calls = itertools.count(1)

    def dying(*args):
        if next(calls) == nth:
            handle.alive = False
            raise ShardDeadError(
                f"worker {handle.shard_id} crashed in {method}"
            )
        return original(*args)

    setattr(handle, method, dying)


# ----------------------------------------------------------------------
# (a) The bare driver over stub workers
# ----------------------------------------------------------------------


@dataclass
class StubResult:
    end_round: int
    replayed: bool = False


class StubWorker:
    """Returns canned results and remembers what it was asked."""

    def __init__(self):
        self.calls = []

    def run_rounds(self, start, end):
        self.calls.append(("run", start, end))
        return StubResult(end)

    def adopt(self, units, upto):
        self.calls.append(("adopt", tuple(units), upto))
        return StubResult(upto, replayed=True) if upto >= 1 else None


class StubSpec:
    total_rounds = 6

    @staticmethod
    def round_time(round_index):
        assert round_index >= 1
        return float(round_index)


class StubPlane(PlaneDriver[WorkerStatus]):
    """Three chunks of two rounds; orphans all go to the first
    survivor; merged chunks are only written down."""

    def __init__(self, units, kill_schedule=None, recorder=None):
        super().__init__(
            StubSpec(), len(units), 2, kill_schedule, recorder
        )
        self.workers = [StubWorker() for _ in units]
        self.merged = []
        for worker_id, owned in enumerate(units):
            self._add_worker(
                InProcessHandle(worker_id, self.workers[worker_id]),
                WorkerStatus(worker_id, tuple(owned)),
            )

    def _place_orphans(self, orphaned, survivors):
        return {survivors[0]: list(orphaned)} if orphaned else {}

    def _merge_chunk(self, chunk, start, end, results):
        self.merged.append((chunk, start, end, list(results)))


UNITS = (("a", "b"), ("c",), ("d", "e"))


def assert_single_ownership(plane):
    """Every unit has exactly one owner, and only live workers own."""
    assert sorted(plane.owned) == plane._live()
    owned = [unit for units in plane.owned.values() for unit in units]
    assert sorted(owned) == sorted(
        unit for units in UNITS for unit in units
    )


class TestBareDriver:
    def test_no_death_runs_every_chunk_on_every_worker(self):
        plane = StubPlane(UNITS)
        plane._drive()
        assert [m[:3] for m in plane.merged] == [
            (1, 1, 2), (2, 3, 4), (3, 5, 6),
        ]
        for worker, status in zip(plane.workers, plane.statuses.values()):
            assert worker.calls == [
                ("run", 1, 2), ("run", 3, 4), ("run", 5, 6),
            ]
            assert status.chunks_completed == 3
            assert status.last_round == 6
        assert plane.reassignments == []
        assert not any(h.alive for h in plane.handles.values())

    def test_kill_schedule_ids_validated(self):
        for bad in ({3: 1}, {-1: 1}):
            with pytest.raises(ValueError, match="out of range"):
                StubPlane(UNITS, kill_schedule=bad)

    def test_boundary_kill_replays_to_the_round_before_the_chunk(self):
        recorder = TraceRecorder()
        plane = StubPlane(UNITS, kill_schedule={0: 2}, recorder=recorder)
        plane._drive()
        (move,) = plane.reassignments
        assert (move.chunk, move.round_index) == (2, 2)
        assert (move.from_worker, move.to_worker) == (0, 1)
        assert move.units == ("a", "b")
        # The adopter replays 1..2 and then runs chunk 2 once, with
        # everyone else — not once before adopting and again inside a
        # replay.
        assert plane.workers[1].calls == [
            ("run", 1, 2), ("adopt", ("a", "b", "c"), 2),
            ("run", 3, 4), ("run", 5, 6),
        ]
        assert plane.workers[0].calls == [("run", 1, 2)]
        replay, *chunk_results = plane.merged[1][3]
        assert replay.replayed and replay.end_round == 2
        assert [r.end_round for r in chunk_results] == [4, 4]
        assert plane.statuses[1].chunks_completed == 3
        assert plane.statuses[1].adopted == 2
        assert plane.statuses[0].units == ("a", "b")  # as it died
        assert_single_ownership(plane)
        counters = recorder.metrics.counters()
        assert counters["plane.deaths"] == 1
        assert counters["plane.reassignments"] == 1
        assert recorder.events("plane.dead")
        assert recorder.events("plane.reassign")

    def test_kill_before_the_first_chunk_needs_no_replay(self):
        plane = StubPlane(UNITS, kill_schedule={2: 1})
        plane._drive()
        assert [m.round_index for m in plane.reassignments] == [0]
        assert plane.workers[0].calls[:2] == [
            ("adopt", ("a", "b", "d", "e"), 0), ("run", 1, 2),
        ]
        assert plane.workers[2].calls == []

    @pytest.mark.parametrize("method", ["begin_chunk", "finish_chunk"])
    def test_mid_chunk_death_replays_to_the_chunk_end(self, method):
        plane = StubPlane(UNITS)
        die_on(plane.handles[0], method, 2)
        plane._drive()
        (move,) = plane.reassignments
        assert (move.chunk, move.round_index) == (2, 4)
        assert plane.workers[1].calls == [
            ("run", 1, 2), ("run", 3, 4),
            ("adopt", ("a", "b", "c"), 4), ("run", 5, 6),
        ]
        *chunk_results, replay = plane.merged[1][3]
        assert replay.replayed and replay.end_round == 4
        assert len(chunk_results) == 2
        assert not plane.statuses[0].alive
        assert plane.statuses[0].last_round == 2
        assert_single_ownership(plane)

    def test_dying_adopter_reorphans_original_and_adopted_units(self):
        plane = StubPlane(UNITS, kill_schedule={0: 2})
        die_on(plane.handles[1], "rebuild", 1)
        plane._drive()
        assert [
            (m.from_worker, m.to_worker, m.units)
            for m in plane.reassignments
        ] == [
            (0, 1, ("a", "b")),
            (1, 2, ("a", "b", "c")),
        ]
        assert plane.owned == {2: ("a", "b", "c", "d", "e")}
        assert plane.statuses[2].units == ("a", "b", "c", "d", "e")
        assert plane.workers[2].calls[1] == (
            "adopt", ("a", "b", "c", "d", "e"), 2
        )
        assert_single_ownership(plane)

    def test_survivors_exhausted_raises(self):
        plane = StubPlane(UNITS, kill_schedule={0: 2, 1: 2})
        die_on(plane.handles[2], "rebuild", 1)
        with pytest.raises(PlaneError, match="all plane workers dead"):
            plane._drive()

    def test_live_handles_are_stopped_when_a_chunk_raises(self):
        plane = StubPlane(UNITS)

        def broken_merge(chunk, start, end, results):
            raise RuntimeError("merge blew up")

        plane._merge_chunk = broken_merge
        with pytest.raises(RuntimeError, match="merge blew up"):
            plane._drive()
        assert not any(h.alive for h in plane.handles.values())
        # Stopping a handle is not a death.
        assert all(s.alive for s in plane.statuses.values())


# ----------------------------------------------------------------------
# (b) Both real planes: any death leaves the baseline's comparable()
# ----------------------------------------------------------------------


def shard_plane(num_workers, kill_schedule=None):
    return ShardCoordinator(
        small_spec(), num_workers, chunk_rounds=3,
        kill_schedule=kill_schedule,
    )


def fleet_plane(num_workers, kill_schedule=None):
    spec = small_fleet_spec(
        total_rounds=12, budget=60, churn_rate=0.3,
        extra_tenants=(TenantSpec(
            name="c", num_containers=4, gpus_per_container=4,
            arrival_round=2,
        ),),
    )
    return FleetCoordinator(
        spec, num_workers=num_workers, kill_schedule=kill_schedule
    )


@pytest.fixture(scope="module")
def baselines():
    return {
        plane: plane(1).run().comparable()
        for plane in (shard_plane, fleet_plane)
    }


@pytest.mark.parametrize("plane", [shard_plane, fleet_plane])
class TestDeathsOnBothPlanes:
    def test_baseline_is_not_vacuous(self, plane, baselines):
        assert baselines[plane]["events"]
        assert baselines[plane]["verdicts"]

    def test_scripted_kill(self, plane, baselines):
        coordinator = plane(3, kill_schedule={0: 2})
        result = coordinator.run()
        assert result.reassignments
        end_of_chunk_1 = coordinator.chunk_rounds
        assert {m.round_index for m in result.reassignments} == {
            end_of_chunk_1
        }
        assert result.comparable() == baselines[plane]

    @pytest.mark.parametrize("method", ["begin_chunk", "finish_chunk"])
    def test_death_found_mid_chunk(self, plane, baselines, method):
        coordinator = plane(3)
        die_on(coordinator.handles[0], method, 2)
        result = coordinator.run()
        assert not coordinator.statuses[0].alive
        assert result.reassignments
        end_of_chunk_2 = 2 * coordinator.chunk_rounds
        assert {m.round_index for m in result.reassignments} == {
            end_of_chunk_2
        }
        assert result.comparable() == baselines[plane]

    def test_adopter_dies_inside_rebuild(self, plane, baselines):
        coordinator = plane(3, kill_schedule={1: 2})
        die_on(coordinator.handles[0], "rebuild", 1)
        result = coordinator.run()
        assert {m.from_worker for m in result.reassignments} == {0, 1}
        # Worker 2 ends up owning everything either casualty held.
        statuses = coordinator.statuses
        assert coordinator.owned == {2: statuses[2].units}
        assert statuses[0].adopted > 0  # it died holding adopted units
        assert set(statuses[2].units) > (
            set(statuses[0].units) | set(statuses[1].units)
        )
        assert result.comparable() == baselines[plane]

    def test_every_worker_dying_raises(self, plane, baselines):
        coordinator = plane(2, kill_schedule={0: 2})
        die_on(coordinator.handles[1], "rebuild", 1)
        with pytest.raises(PlaneError):
            coordinator.run()

    def test_unknown_worker_in_the_kill_schedule(self, plane, baselines):
        with pytest.raises(
            ValueError, match="kill_schedule worker 7 out of range"
        ):
            plane(2, kill_schedule={7: 1})

    def test_a_kill_outside_the_runs_chunks_is_refused(self, plane):
        # Twelve rounds: four shard chunks of 3, three fleet chunks of 4.
        chunks = {shard_plane: 4, fleet_plane: 3}[plane]
        for at_chunk in (0, chunks + 1):
            with pytest.raises(
                ValueError, match=f"chunk {at_chunk} .* outside 1..{chunks}"
            ):
                plane(2, kill_schedule={1: at_chunk})

