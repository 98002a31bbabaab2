"""Every shard worker starts from one world: the spec's replica with its
whole pair universe resolved at t = 0, before any scheduled fault.

A forked worker inherits it from the coordinator (its reference
replica, not stepped yet); an in-process worker, a ``spawn``-ed one and
a failover adopter build it.  These tests hold the two to each other:
the reference at the moment the workers are spawned is the world a
rebuild builds, a fault already active at round 1 meets that world in
every worker whoever owns which pairs, and a ``spawn``-ed plane says
what a forked one says.
"""

import multiprocessing as mp
from dataclasses import replace

import pytest

from repro.core.detection import DetectorConfig
from repro.core.localization import Localizer
from repro.network.issues import IssueType
from repro.shard import (
    FaultSpec,
    InProcessBackend,
    MultiprocessingBackend,
    ShardCoordinator,
    ShardScenarioSpec,
)
from repro.shard.backend import backend_named
from repro.shard.equivalence import default_equivalence_spec
from repro.shard.monitor import ShardMonitor
from repro.shard.spec import (
    FaultScheduleRunner,
    build_replica,
    build_warm_replica,
    pair_universe,
)


def _dump(table):
    return [
        (rule.key, rule.action, rule.offloaded, rule.offloaded_to,
         rule.packets)
        for rule in table.rules()
    ]


def world(scenario):
    """What a replica's next round reads, and what it has counted."""
    overlay = scenario.cluster.overlay
    fabric = scenario.fabric
    cache = fabric.resolution_cache
    return {
        "ovs": [(host, _dump(overlay.ovs_table(host)))
                for host in overlay.hosts_with_tables()],
        "offload": [(rnic, _dump(overlay.offload_table(rnic)))
                    for rnic in overlay.offload_rnics()],
        "epoch": overlay.epoch,
        "health": sorted(
            (name, health.down, health.extra_latency_us,
             health.loss_rate, health.force_software_path)
            for name, health in overlay._health.items()
        ),
        "counters": (
            fabric.metrics.counters(), cache.hits, cache.misses,
        ),
        "cache": sorted(
            (pair, entry.reached, entry.stale)
            for pair, entry in cache._entries.items()
        ),
        "faults": len(scenario.injector.all_faults()),
    }


class RecordingBackend(InProcessBackend):
    """In-process workers that note the reference's world at each
    spawn — the moment a forked worker would take it over."""

    def __init__(self):
        self.seen = []

    def spawn(self, shard_id, spec, pairs, reference):
        self.seen.append(world(reference))
        return super().spawn(shard_id, spec, pairs, reference)


class TestTheInheritedReplicaIsARebuild:
    @pytest.mark.parametrize("num_shards", [1, 4])
    def test_the_reference_at_spawn_is_the_world_a_rebuild_builds(
        self, num_shards
    ):
        spec = default_equivalence_spec()
        backend = RecordingBackend()
        coordinator = ShardCoordinator(spec, num_shards, backend=backend)
        rebuilt, pairs = build_warm_replica(spec)
        expected = world(rebuilt)
        assert expected["cache"] and expected["offload"]
        assert all(entry[1] for entry in expected["cache"])
        assert expected["faults"] == 0
        assert backend.seen == [expected] * num_shards
        assert world(coordinator.reference) == expected
        assert coordinator.all_pairs == pairs

    def test_the_warm_world_is_the_cold_one_after_a_t0_round(self):
        spec = default_equivalence_spec()
        warm, pairs = build_warm_replica(spec)
        cold = build_replica(spec)
        assert pairs == pair_universe(spec, cold)
        assert world(warm) != world(cold)
        cold.fabric.send_probe_batch(pairs, 0.0)
        assert world(warm) == world(cold)


def round_one_overlay_fault_spec():
    """An RNIC that cannot offload from round 1 until round 4, then its
    host off RDMA over rounds 14-19, under 4 s detection windows.  The
    first fault demotes the rules the t = 0 world offloaded and its
    clear puts them back, so the second one moves the pairs on that
    RNIC from the fast path to the software path: a latency rise.  A
    worker that met the first fault cold would have installed them on
    the software path for good, and seen no rise."""
    base = ShardScenarioSpec(
        num_containers=8, gpus_per_container=4, seed=5, total_rounds=24,
        detector=DetectorConfig(
            short_window_s=4.0, lookback_windows=4, min_history_windows=2,
        ),
    )
    rnic = build_replica(base).rnic_of_rank(5)
    return replace(base, faults=(
        FaultSpec(
            issue=IssueType.OFFLOADING_FAILURE.name, target=rnic,
            start_round=1, end_round=4,
        ),
        FaultSpec(
            issue=IssueType.NOT_USING_RDMA.name, target=rnic.host,
            start_round=14, end_round=20,
        ),
    ))


def one_warm_monitor(spec):
    """The streams of one monitor owning every pair on a replica warmed
    here, localized round by round on a second one: the oracle."""
    def warmed():
        replica = build_replica(spec)
        pairs = pair_universe(spec, replica)
        replica.fabric.send_probe_batch(pairs, 0.0)
        return replica, pairs

    reference, pairs = warmed()
    schedule = FaultScheduleRunner(
        reference.injector, spec, reference.task.containers.get
    )
    localizer = Localizer(reference.cluster, reference.fabric)
    monitor = ShardMonitor(0, spec, pairs, warmed()[0])
    verdicts = []
    for round_index in range(1, spec.total_rounds + 1):
        monitor.run_rounds(round_index, round_index)
        schedule.advance_to(round_index)
        now = spec.round_time(round_index)
        _, report = localizer.localize_open(
            monitor.analyzer.open_events(), lambda fresh: pairs, now,
        )
        if report is not None:
            verdicts.append((now, *report.verdict_row()))
    events = sorted(
        (str(event.pair.src), str(event.pair.dst),
         event.first_detected_at, event.symptom.name)
        for event in monitor.analyzer.events
    )
    return {"events": events, "verdicts": verdicts}


class TestARoundOneOverlayFaultMeetsTheWarmWorld:
    @pytest.fixture(scope="class")
    def spec(self):
        return round_one_overlay_fault_spec()

    @pytest.fixture(scope="class")
    def expected(self, spec):
        streams = one_warm_monitor(spec)
        assert streams["verdicts"]
        assert {row[3] for row in streams["events"]} == {"HIGH_LATENCY"}
        return streams

    @pytest.mark.parametrize("backend", ["inproc", "mp"])
    @pytest.mark.parametrize("num_shards, kill_schedule", [
        (1, {}), (2, {}), (4, {}), (4, {1: 2}),
    ])
    def test_every_plane_says_what_one_warm_monitor_says(
        self, spec, expected, backend, num_shards, kill_schedule
    ):
        result = ShardCoordinator(
            spec, num_shards, backend=backend_named(backend),
            chunk_rounds=4, kill_schedule=kill_schedule,
        ).run()
        assert bool(result.reassignments) == bool(kill_schedule)
        assert result.comparable() == expected


class TestSpawnedWorkers:
    @pytest.mark.slow
    def test_a_spawned_plane_says_what_forked_and_inproc_ones_say(self):
        spec = default_equivalence_spec()
        spawned = MultiprocessingBackend()
        spawned._context = mp.get_context("spawn")
        streams = [
            ShardCoordinator(spec, 2, backend=backend).run().comparable()
            for backend in (
                spawned, MultiprocessingBackend(), InProcessBackend(),
            )
        ]
        assert streams[0]["events"] and streams[0]["verdicts"]
        assert streams[0] == streams[1] == streams[2]
