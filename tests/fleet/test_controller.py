"""Tests for the fleet controller's per-tenant isolation.

Isolation is structural: each tenant gets a private analyzer,
localizer batch stream, and name-scoped blacklist, so one tenant's
fault can never surface in another tenant's diagnosis — and a
controller monitoring a subset of tenants reproduces exactly the
subset's streams.
"""

import pytest

from repro.fleet.controller import FleetController
from repro.fleet.spec import fleet_bench_spec

from tests.fleet.conftest import small_fleet_spec


@pytest.fixture(scope="module")
def faulted_run():
    """A full-fleet controller run over a crash inside tenant 'a'."""
    spec = small_fleet_spec()
    controller = FleetController(spec)
    controller.run_rounds(1, spec.total_rounds)
    return spec, controller


class TestFaultIsolation:
    def test_events_stay_inside_the_faulted_tenant(self, faulted_run):
        _, controller = faulted_run
        events = controller.event_summary()
        assert events, "the crash must open events"
        assert {row[0] for row in events} == {"a"}

    def test_verdicts_blame_only_the_tenants_own_components(
        self, faulted_run
    ):
        _, controller = faulted_run
        verdicts = controller.verdict_summary()
        assert verdicts
        for tenant, _, diagnoses, _ in verdicts:
            assert tenant == "a"
            for component, _, _, _ in diagnoses:
                assert "task-0" in component

    def test_healthy_tenant_pipeline_is_untouched(self, faulted_run):
        _, controller = faulted_run
        healthy = controller.tenants["b"]
        assert not healthy.analyzer.open_events()
        assert not healthy.events
        assert not healthy.verdicts
        assert healthy.blacklist.active() == []

    def test_blacklists_are_scoped_by_tenant_name(self, faulted_run):
        _, controller = faulted_run
        faulted = controller.tenants["a"]
        assert faulted.blacklist.scope == "a"
        active = faulted.blacklist.active()
        assert active, "the crash verdict must blacklist something"
        for scope, _ in faulted.blacklist.active_entries():
            assert scope == "a"
        # The controller's merged view carries the tenant key.
        assert {row[0] for row in controller.blacklist_summary()} == {
            "a"
        }


class TestBudgetEnforcement:
    def test_quota_respects_floor_every_round(self, faulted_run):
        _, controller = faulted_run
        assert controller.rollups
        for rollup in controller.rollups:
            for name, _, floor, quota, _, _, _ in rollup.tenant_rows:
                assert quota >= floor, (rollup.round_index, name)

    def test_budget_never_exceeded(self, faulted_run):
        _, controller = faulted_run
        for rollup in controller.rollups:
            assert rollup.granted <= rollup.budget

    def test_coverage_summary_tracks_the_binding_budget(
        self, faulted_run
    ):
        spec, controller = faulted_run
        for name, min_cov, cumulative in controller.coverage_summary():
            assert min_cov >= spec.tenant(name).coverage_floor - 1e-9
            assert cumulative >= min_cov


class TestMonitorSubset:
    def test_subset_controller_reproduces_the_subset_streams(self):
        spec = small_fleet_spec()
        reference = FleetController(spec)
        reference.run_rounds(1, spec.total_rounds)
        solo = FleetController(spec, monitor_tenants=("a",))
        solo.run_rounds(1, spec.total_rounds)
        assert solo.event_summary() == [
            row for row in reference.event_summary() if row[0] == "a"
        ]
        assert solo.verdict_summary() == [
            row for row in reference.verdict_summary()
            if row[0] == "a"
        ]
        assert solo.blacklist_summary() == [
            row for row in reference.blacklist_summary()
            if row[0] == "a"
        ]

    def test_unknown_monitor_tenant_rejected(self):
        with pytest.raises(KeyError):
            FleetController(
                small_fleet_spec(), monitor_tenants=("ghost",)
            )

    def test_rounds_must_be_contiguous(self):
        controller = FleetController(small_fleet_spec())
        controller.run_rounds(1, 2)
        with pytest.raises(ValueError):
            controller.run_rounds(4, 5)


class TestAdoption:
    def test_adoption_replay_matches_native_monitoring(self):
        spec = small_fleet_spec()
        native = FleetController(spec)
        native.run_rounds(1, spec.total_rounds)
        # A controller that monitored only 'b' adopts 'a' after round
        # 4 and replays, then finishes the run.
        adopter = FleetController(spec, monitor_tenants=("b",))
        adopter.run_rounds(1, 4)
        adopter.adopt(("a",), upto_round=4)
        adopter.run_rounds(5, spec.total_rounds)
        assert adopter.event_summary() == native.event_summary()
        assert adopter.verdict_summary() == native.verdict_summary()
        assert (
            adopter.blacklist_summary() == native.blacklist_summary()
        )
        assert (
            adopter.coverage_summary() == native.coverage_summary()
        )


class TestFlowCacheUnderChurn:
    def test_churning_fleet_keeps_the_flow_cache_warm(self):
        # Counting guard: a third of these tenants migrate containers
        # and tenants arrive and leave, so flow tables change somewhere
        # nearly every round.  Validity scoped to the tables a
        # resolution walked keeps the other tenants' entries (the same
        # run under one global epoch: 0.11).
        spec = fleet_bench_spec(8, total_rounds=64)
        controller = FleetController(spec)
        controller.run_rounds(1, spec.total_rounds)
        fabric = controller.replica.fabric
        assert fabric.resolution_cache.hit_ratio >= 0.75
        assert sum(
            fabric.metrics.counters("cache.miss.").values()
        ) == fabric.resolution_cache.misses
