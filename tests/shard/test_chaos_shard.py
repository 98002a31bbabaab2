"""Monitor-plane chaos through the sharded plane: pinned schedules,
deterministic replay, and breaker state surviving failover."""

import pytest

from repro.chaos.faults import MonitorIssue
from repro.shard import ShardCoordinator, ShardScenarioSpec
from repro.shard.monitor import ShardMonitor
from repro.shard.spec import (
    MonitorFaultSpec,
    build_monitor_chaos,
    build_replica,
    pair_universe,
)

from tests.chaos.test_faults import fates_of
from tests.shard.conftest import small_spec


def chaotic_spec(seed=0, total_rounds=12):
    """The conftest scenario plus standard monitor weather: report loss
    all run, one agent crashed for rounds 3..7."""
    base = small_spec(seed=seed, total_rounds=total_rounds)
    return ShardScenarioSpec(
        num_containers=base.num_containers,
        gpus_per_container=base.gpus_per_container,
        seed=base.seed, total_rounds=base.total_rounds,
        faults=base.faults,
        monitor_faults=(
            MonitorFaultSpec(
                issue=MonitorIssue.PROBE_REPORT_LOSS.name,
                start_round=1, rate=0.3,
            ),
            MonitorFaultSpec(
                issue=MonitorIssue.AGENT_CRASH.name,
                start_round=3, end_round=7, scope="task-0/node-2",
            ),
        ),
    )


class TestMonitorFaultSpec:
    def test_issue_round_trips_by_name(self):
        spec = MonitorFaultSpec(
            issue="TELEMETRY_DROP", start_round=1
        )
        assert spec.issue_type() is MonitorIssue.TELEMETRY_DROP

    def test_unknown_issue_raises(self):
        with pytest.raises(KeyError):
            MonitorFaultSpec(
                issue="NOT_AN_ISSUE", start_round=1
            ).issue_type()

    def test_build_monitor_chaos_pins_ids_and_windows(self):
        spec = chaotic_spec()
        injector = build_monitor_chaos(spec)
        faults = injector.all_faults()
        assert faults[0].start == spec.round_time(1)
        assert [f.fault_id for f in faults] == [0, 1]
        assert faults[0].rate == 0.3
        assert faults[1].start == spec.round_time(3)
        assert faults[1].end == spec.round_time(7)
        assert faults[1].scope == "task-0/node-2"

    def test_no_schedule_means_no_injector(self):
        assert build_monitor_chaos(small_spec()) is None

    def test_rebuilt_injectors_draw_identical_fates(self):
        spec = chaotic_spec()
        pairs = pair_universe(spec, build_replica(spec))
        pair = pairs[0]

        def fates():
            return fates_of(
                build_monitor_chaos(spec), pair.src, pair.dst, range(60)
            )

        assert fates() == fates()


class TestChaoticPlane:
    def test_same_config_runs_are_identical(self):
        first = ShardCoordinator(chaotic_spec(), 2, chunk_rounds=3).run()
        second = ShardCoordinator(chaotic_spec(), 2, chunk_rounds=3).run()
        assert first.event_summary() == second.event_summary()
        assert first.verdict_summary() == second.verdict_summary()
        assert first.breaker_summary() == second.breaker_summary()

    def test_breaker_summary_covers_every_agent(self):
        spec = chaotic_spec()
        result = ShardCoordinator(spec, 2, chunk_rounds=3).run()
        rows = result.breaker_summary()
        containers = {row[1] for row in rows}
        # One agent per container that sources a canonical pair.
        expected = {
            str(p.src.container)
            for p in pair_universe(spec, build_replica(spec))
        }
        assert containers == expected
        # The crashed agent's breaker tripped at least once.
        crashed = [r for r in rows if r[1] == "task-0/node-2"]
        assert crashed and crashed[0][5] >= 1  # trips column

    def test_chaos_free_spec_has_no_breaker_state(self):
        result = ShardCoordinator(small_spec(), 2, chunk_rounds=3).run()
        assert result.breaker_summary() == []

    def test_failover_under_chaos_is_deterministic(self):
        first = ShardCoordinator(
            chaotic_spec(), 3, chunk_rounds=3, kill_schedule={1: 2}
        ).run()
        second = ShardCoordinator(
            chaotic_spec(), 3, chunk_rounds=3, kill_schedule={1: 2}
        ).run()
        assert first.reassignments
        assert first.event_summary() == second.event_summary()
        assert first.breaker_summary() == second.breaker_summary()
        # Live shards still report breaker state for every agent the
        # pair universe requires, despite the mid-run kill.
        spec = chaotic_spec()
        expected = {
            str(p.src.container)
            for p in pair_universe(spec, build_replica(spec))
        }
        assert {row[1] for row in first.breaker_summary()} == expected


class TestAdoptionEquivalence:
    def test_adopter_breakers_match_owning_from_round_one(self):
        """The failover invariant for hardened probing: replaying the
        chaos schedule against a rebuilt replica leaves the adopter's
        breakers bit-identical to a monitor that owned the union pair
        set from round 1."""
        spec = chaotic_spec()
        pairs = pair_universe(spec, build_replica(spec))
        half = len(pairs) // 2

        owner = ShardMonitor(0, spec, pairs)
        owner.run_rounds(1, 6)

        adopter = ShardMonitor(0, spec, pairs[:half])
        adopter.run_rounds(1, 6)
        result = adopter.adopt(pairs[half:], upto_round=6)

        assert result is not None and result.replayed
        assert adopter.breaker_snapshots() == owner.breaker_snapshots()
        assert result.breaker_states == owner.breaker_snapshots()

    def test_continuation_after_adoption_stays_equivalent(self):
        spec = chaotic_spec()
        pairs = pair_universe(spec, build_replica(spec))
        half = len(pairs) // 2

        owner = ShardMonitor(0, spec, pairs)
        owner.run_rounds(1, 9)

        adopter = ShardMonitor(0, spec, pairs[:half])
        adopter.run_rounds(1, 6)
        adopter.adopt(pairs[half:], upto_round=6)
        adopter.run_rounds(7, 9)

        assert adopter.breaker_snapshots() == owner.breaker_snapshots()
