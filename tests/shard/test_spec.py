"""Tests for the replayable fault schedule and the ring-chord pair
universe."""

import pytest

from repro.cluster.identifiers import ContainerId, EndpointId, TaskId
from repro.core.pinglist import ProbePair
from repro.network.issues import IssueType
from repro.shard import (
    FaultScheduleRunner,
    FaultSpec,
    ShardScenarioSpec,
    build_replica,
)
from repro.shard.spec import ring_chord_pairs


def runner_for(spec):
    replica = build_replica(spec)
    return FaultScheduleRunner(
        replica.injector, spec, replica.task.containers.get
    )


def spec_with_interval(start_round, end_round):
    base = ShardScenarioSpec(
        num_containers=8, gpus_per_container=2, total_rounds=12,
    )
    probe = build_replica(base)
    rnic = probe.rnic_of_rank(3)
    return ShardScenarioSpec(
        num_containers=8, gpus_per_container=2, total_rounds=12,
        faults=(
            FaultSpec(
                issue=IssueType.RNIC_PORT_DOWN.name, target=rnic,
                start_round=start_round, end_round=end_round,
            ),
        ),
    )


class TestFaultScheduleRunner:
    def test_half_open_interval_clears_at_end_round(self):
        spec = spec_with_interval(2, 5)
        runner = runner_for(spec)
        runner.advance_to(1)
        assert runner.active_faults() == []
        runner.advance_to(4)
        assert len(runner.active_faults()) == 1
        runner.advance_to(5)
        assert runner.active_faults() == []

    def test_empty_interval_never_injects(self):
        # [start, start) is empty: the fault must never become active,
        # not get injected and stay active forever.
        spec = spec_with_interval(3, 3)
        runner = runner_for(spec)
        for round_index in range(1, spec.total_rounds + 1):
            runner.advance_to(round_index)
            assert runner.active_faults() == []

    def test_inverted_interval_never_injects(self):
        spec = spec_with_interval(5, 2)
        runner = runner_for(spec)
        runner.advance_to(spec.total_rounds)
        assert runner.active_faults() == []

    def test_open_ended_interval_stays_active(self):
        spec = spec_with_interval(2, None)
        runner = runner_for(spec)
        runner.advance_to(spec.total_rounds)
        assert len(runner.active_faults()) == 1

    def test_unresolved_container_target_is_skipped(self):
        from repro.cluster.identifiers import ContainerId, TaskId

        spec = ShardScenarioSpec(
            num_containers=8, gpus_per_container=2, total_rounds=4,
            faults=(
                FaultSpec(
                    issue=IssueType.CONTAINER_CRASH.name,
                    target=ContainerId(TaskId(99), 0), start_round=2,
                ),
            ),
        )
        runner = runner_for(spec)
        runner.advance_to(spec.total_rounds)
        assert runner.active_faults() == []


def oracle_ring_chord_pairs(endpoints):
    """The construction as it stood before pairs were canonicalised by
    position, verbatim: dataclass canonicalisation and sort."""
    n = len(endpoints)
    stride = n // 3 + 1
    pairs = set()
    for i, src in enumerate(endpoints):
        for dst in (endpoints[(i + 1) % n], endpoints[(i + stride) % n]):
            if src != dst and src.container != dst.container:
                pairs.add(ProbePair.canonical(src, dst))
    return sorted(pairs)


def task_endpoints(containers, rnics):
    return sorted(
        EndpointId(ContainerId(TaskId(3), rank), slot)
        for rank in range(containers)
        for slot in range(rnics)
    )


class TestRingChordPairs:
    @pytest.mark.parametrize("containers", range(4))
    @pytest.mark.parametrize("rnics", range(1, 9))
    def test_small_universes_are_the_oracles(self, containers, rnics):
        endpoints = task_endpoints(containers, rnics)
        assert ring_chord_pairs(endpoints) == oracle_ring_chord_pairs(
            endpoints
        )

    def test_the_2048_endpoint_universe_is_the_oracles(self):
        endpoints = task_endpoints(256, 8)
        pairs = ring_chord_pairs(endpoints)
        assert pairs == oracle_ring_chord_pairs(endpoints)
        assert len(pairs) == 256 + 2048  # cross-container ring + chords
