"""Tests for the shard coordinator: heartbeats, failover, merging."""

import pytest

from repro.core.localization import Localizer, localize_open_events
from repro.obs.trace import TraceRecorder
from repro.shard import (
    InProcessBackend,
    PlaneError,
    ShardCoordinator,
    ShardDeadError,
)
from repro.shard.backend import (
    InProcessHandle,
    MultiprocessingBackend,
    backend_named,
)
from repro.shard.equivalence import default_equivalence_spec
from repro.shard.monitor import ShardMonitor
from repro.shard.spec import FaultScheduleRunner, build_replica, pair_universe


class DyingAdopterBackend:
    """In-process backend whose chosen shard crashes the moment it is
    asked to rebuild — an adopter dying mid-failover."""

    name = "inproc"

    def __init__(self, dies_on_rebuild):
        self._dies = dies_on_rebuild
        self._inner = InProcessBackend()

    def spawn(self, shard_id, spec, pairs):
        handle = self._inner.spawn(shard_id, spec, pairs)
        if shard_id == self._dies:
            def dying_rebuild(pairs, upto_round):
                handle.alive = False
                raise ShardDeadError(
                    f"shard {shard_id} crashed mid-rebuild"
                )

            handle.rebuild = dying_rebuild
        return handle


class TestHeartbeats:
    def test_statuses_track_progress(self, spec):
        result = ShardCoordinator(spec, 3, chunk_rounds=4).run()
        assert sorted(result.statuses) == [0, 1, 2]
        for status in result.statuses.values():
            assert status.alive
            assert status.chunks_completed == 3  # 12 rounds / 4
            assert status.last_round == spec.total_rounds
            assert status.last_sim_time == spec.round_time(
                spec.total_rounds
            )
        assert (
            sum(len(s.units) for s in result.statuses.values())
            == sum(result.plan.pair_counts())
        )

    def test_heartbeat_metrics_accumulate(self, spec):
        result = ShardCoordinator(spec, 2, chunk_rounds=3).run()
        counters = result.metrics.counters()
        assert counters["shard.heartbeats"] == 2 * 4  # shards x chunks
        assert counters["probes.sent"] > 0
        assert counters["shard.0.probes.sent"] > 0
        assert counters["shard.1.probes.sent"] > 0
        assert (
            counters["shard.0.probes.sent"]
            + counters["shard.1.probes.sent"]
            == counters["probes.sent"]
        )

    def test_recorder_collects_per_shard_series(self, spec):
        recorder = TraceRecorder()
        result = ShardCoordinator(
            spec, 2, chunk_rounds=6, recorder=recorder
        ).run()
        assert recorder.metrics is result.metrics
        series = recorder.metrics.series("shard.0.heartbeat")
        assert len(series) == 2  # one sample per chunk


class TestFailover:
    def test_scripted_kill_reassigns_pairs(self, spec):
        result = ShardCoordinator(
            spec, 3, chunk_rounds=3, kill_schedule={1: 2}
        ).run()
        assert not result.statuses[1].alive
        assert result.statuses[1].last_round < spec.total_rounds
        moves = result.reassignments
        assert moves and all(m.from_worker == 1 for m in moves)
        assert {m.to_worker for m in moves} <= {0, 2}
        orphaned = sum(len(m.units) for m in moves)
        adopted = sum(
            s.adopted for s in result.statuses.values()
        )
        assert orphaned == adopted > 0
        counters = result.metrics.counters()
        assert counters["shard.deaths"] == 1
        assert counters["shard.reassignments"] == len(moves)

    def test_survivors_cover_the_whole_universe(self, spec):
        result = ShardCoordinator(
            spec, 3, chunk_rounds=3, kill_schedule={0: 2}
        ).run()
        live_pairs = sum(
            len(s.units)
            for s in result.statuses.values()
            if s.alive
        )
        assert live_pairs == sum(result.plan.pair_counts())

    def test_killing_every_shard_raises(self, spec):
        with pytest.raises(PlaneError):
            ShardCoordinator(
                spec, 2, chunk_rounds=3, kill_schedule={0: 2, 1: 2}
            ).run()

    def test_dead_adopter_reorphans_its_pairs(self, spec):
        # Shard 1 is killed at chunk 2; shard 0 (an adopter) crashes
        # during the failover rebuild.  Its whole pair set — original
        # and adopted — must land on shard 2, not silently vanish.
        coordinator = ShardCoordinator(
            spec, 3, backend=DyingAdopterBackend(0),
            chunk_rounds=3, kill_schedule={1: 2},
        )
        result = coordinator.run()
        assert not result.statuses[0].alive
        assert not result.statuses[1].alive
        assert result.statuses[2].alive
        assert len(result.statuses[2].units) == sum(
            result.plan.pair_counts()
        )
        assert {m.from_worker for m in result.reassignments} == {0, 1}

    def test_dead_adopter_keeps_baseline_equivalence(self, spec):
        # The coverage guarantee: even with a mid-failover adopter
        # crash, events and verdicts match the single-shard baseline.
        baseline = ShardCoordinator(spec, 1, chunk_rounds=3).run()
        coordinator = ShardCoordinator(
            spec, 3, backend=DyingAdopterBackend(0),
            chunk_rounds=3, kill_schedule={1: 2},
        )
        result = coordinator.run()
        assert result.event_summary() == baseline.event_summary()
        assert result.verdict_summary() == baseline.verdict_summary()

    def test_every_adopter_dying_raises(self, spec):
        # Two shards: one killed, the sole survivor dies adopting.
        coordinator = ShardCoordinator(
            spec, 2, backend=DyingAdopterBackend(1),
            chunk_rounds=3, kill_schedule={0: 2},
        )
        with pytest.raises(PlaneError):
            coordinator.run()

    def test_failover_events_recorded(self, spec):
        recorder = TraceRecorder()
        ShardCoordinator(
            spec, 3, chunk_rounds=3, kill_schedule={2: 2},
            recorder=recorder,
        ).run()
        assert recorder.events("shard.dead")
        assert recorder.events("shard.reassign")


class TestMerging:
    def test_events_are_unique_by_key(self, spec):
        result = ShardCoordinator(
            spec, 4, chunk_rounds=3, kill_schedule={1: 3}
        ).run()
        keys = [record.key for record in result.events]
        assert len(keys) == len(set(keys))
        assert (
            result.metrics.counters()["events.opened"] == len(keys)
        )

    def test_faulted_run_localizes(self, spec):
        result = ShardCoordinator(spec, 2, chunk_rounds=3).run()
        assert result.events
        assert result.verdicts
        diagnoses = [
            d for _, report in result.verdicts
            for d in report.diagnoses
        ]
        assert diagnoses
        assert result.metrics.counters()["diagnoses.made"] == len(
            diagnoses
        )

    def test_healthy_run_stays_quiet(self, plain_spec):
        result = ShardCoordinator(plain_spec, 2, chunk_rounds=4).run()
        assert result.events == []
        assert result.verdicts == []
        assert result.metrics.counters().get("events.opened", 0) == 0


def one_monitors_verdicts(spec):
    """What one monitor owning every pair says: the localization step
    on its own analyzer after every round, against a reference replica
    stepped to that round."""
    reference = build_replica(spec)
    schedule = FaultScheduleRunner(
        reference.injector, spec, reference.task.containers.get
    )
    all_pairs = pair_universe(spec, reference)
    reference.fabric.send_probe_batch(all_pairs, 0.0)
    localizer = Localizer(reference.cluster, reference.fabric)
    monitor = ShardMonitor(0, spec, all_pairs)
    localized, verdicts = set(), []
    for round_index in range(1, spec.total_rounds + 1):
        monitor.run_rounds(round_index, round_index)
        schedule.advance_to(round_index)
        now = spec.round_time(round_index)
        _, report = localize_open_events(
            localizer, monitor.analyzer.open_events(), localized,
            lambda fresh: all_pairs, now,
        )
        if report is not None:
            verdicts.append((now, *report.verdict_row()))
    return verdicts


class TestOneMonitorsVerdicts:
    """The coordinator localizes as one monitor owning every pair would,
    round by round, whatever the shard count or failover history."""

    @pytest.fixture(scope="class")
    def expected(self):
        return one_monitors_verdicts(default_equivalence_spec())

    @pytest.mark.parametrize("num_shards, kill_schedule", [
        (1, {}), (2, {}), (4, {}), (4, {1: 2}),
    ])
    def test_verdicts_are_one_monitors(
        self, expected, num_shards, kill_schedule
    ):
        result = ShardCoordinator(
            default_equivalence_spec(), num_shards,
            kill_schedule=kill_schedule,
        ).run()
        assert bool(result.reassignments) == bool(kill_schedule)
        assert len(expected) == 3
        assert result.verdict_summary() == expected


class TracingBackend(InProcessBackend):
    """In-process workers that also note, per opened event, the route
    their own replica traces at the chunk's end — what a heartbeat used
    to carry as ``EventRecord.path_devices``."""

    def __init__(self):
        self.traced = {}

    def spawn(self, shard_id, spec, pairs):
        monitor = ShardMonitor(shard_id, spec, pairs)
        run_rounds = monitor.run_rounds

        def run_and_trace(start_round, end_round, replayed=False):
            result = run_rounds(start_round, end_round, replayed)
            for record in (
                record for entry in result.rounds
                for record in entry.opened
            ):
                self.traced.setdefault(
                    record.key,
                    monitor.scenario.fabric.traceroute(
                        record.src, record.dst
                    ),
                )
            return result

        monitor.run_rounds = run_and_trace
        return InProcessHandle(shard_id, monitor)


class TestRoutesAreAskedNotCarried:
    """Why a heartbeat carries no route: for every event, the reference
    replica traces exactly what the reporting worker's replica does."""

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_reference_traces_what_the_worker_would_have_shipped(
        self, num_shards
    ):
        backend = TracingBackend()
        coordinator = ShardCoordinator(
            default_equivalence_spec(), num_shards, backend=backend
        )
        result = coordinator.run()
        reference = coordinator.reference.fabric
        asked = {
            record.key: reference.traceroute(record.src, record.dst)
            for record in result.events
        }
        assert len(result.events) == 16
        assert set(asked) == result.event_keys() == set(backend.traced)
        assert None not in asked.values()
        assert asked == backend.traced

    def test_a_failover_replay_traces_them_again_identically(self):
        backend = TracingBackend()
        coordinator = ShardCoordinator(
            default_equivalence_spec(), 4, backend=backend,
            kill_schedule={1: 3},
        )
        result = coordinator.run()
        reference = coordinator.reference.fabric
        assert result.reassignments
        assert backend.traced == {
            record.key: reference.traceroute(record.src, record.dst)
            for record in result.events
        }


class TestConstruction:
    def test_invalid_arguments_rejected(self, spec):
        with pytest.raises(ValueError):
            ShardCoordinator(spec, 0)
        with pytest.raises(ValueError):
            ShardCoordinator(spec, 2, chunk_rounds=0)
        with pytest.raises(ValueError):
            backend_named("carrier-pigeon")

    def test_kill_schedule_ids_validated(self, spec):
        with pytest.raises(ValueError):
            ShardCoordinator(spec, 2, kill_schedule={5: 1})
        with pytest.raises(ValueError):
            ShardCoordinator(spec, 2, kill_schedule={-1: 1})

    def test_mp_backend_picks_an_available_start_method(self):
        import multiprocessing as mp

        backend = MultiprocessingBackend()
        method = backend._context.get_start_method()
        assert method in mp.get_all_start_methods()
