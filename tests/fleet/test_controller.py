"""Tests for the fleet controller's per-tenant isolation.

Isolation is per pair: a worker's one analyzer keeps every window and
incident per pair, and each tenant reads only the incidents on its own
pairs into a private localizer batch stream and a name-scoped
blacklist, so one tenant's fault can never surface in another
tenant's diagnosis — and a controller monitoring a subset of tenants
reproduces exactly the subset's streams.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest

import repro.network.fabric as fabric_module
from repro.core.analyzer import Analyzer
from repro.core.probing import ResilientProber
from repro.core.resilience import MAX_RETRIES, CircuitBreaker
from repro.fleet.controller import FleetController
from repro.fleet.spec import TenantSpec, fleet_bench_spec
from repro.network.fabric import DataPlaneFabric
from repro.shard.spec import MonitorFaultSpec

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
        assert not controller.open_events("b")
        assert controller.open_events("a")
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


def counting(owner, name):
    """``owner.name`` patched with a call-counting pass-through."""
    return mock.patch.object(
        owner, name, autospec=True, side_effect=getattr(owner, name)
    )


def lossy(spec, rate=0.5):
    """``spec`` with monitor reports lost at ``rate`` all run."""
    return dataclasses.replace(spec, monitor_faults=(
        MonitorFaultSpec(
            issue="PROBE_REPORT_LOSS", start_round=1, rate=rate
        ),
    ))


def four_tenant_spec():
    return small_fleet_spec(budget=60, extra_tenants=tuple(
        TenantSpec(name=name, num_containers=4, gpus_per_container=4)
        for name in ("c", "d")
    ))


class TestOneBatchPerRound:
    """A fleet worker's round is one fabric batch over every window its
    monitored tenants were granted, plus one per retry wave, and one
    analyzer pass — one ingest, one flush — over its delivered rows."""

    @pytest.mark.parametrize("monitor", [("b",), None],
                             ids=["one-tenant", "four-tenants"])
    @pytest.mark.parametrize("hardened", [False, True],
                             ids=["plain", "chaos"])
    def test_a_round_is_one_batch_plus_retry_waves(
        self, monitor, hardened
    ):
        spec = four_tenant_spec()
        if hardened:
            spec = lossy(spec)
        controller = FleetController(spec, monitor_tenants=monitor)
        with counting(DataPlaneFabric, "send_probe_batch") as batches, \
                counting(Analyzer, "ingest_batch") as ingests, \
                counting(Analyzer, "flush") as flushes:
            controller.run_rounds(1, spec.total_rounds)
        for calls in (ingests, flushes):
            assert calls.call_count == spec.total_rounds
            assert {call.args[0] for call in calls.call_args_list} == {
                controller.analyzer
            }
        assert [call.args[1] for call in flushes.call_args_list] == [
            spec.round_time(r) for r in range(1, spec.total_rounds + 1)
        ]
        calls = [call.args[1:] for call in batches.call_args_list]
        firsts = [i for i, (_, at) in enumerate(calls) if np.ndim(at) == 0]
        assert [calls[i][1] for i in firsts] == [
            spec.round_time(r) for r in range(1, spec.total_rounds + 1)
        ]
        for rollup, first in zip(controller.rollups, firsts):
            assert len(rollup.tenant_rows) == (4 if monitor is None else 1)
            assert len(calls[first][0]) == sum(
                min(demand, quota)
                for _, demand, _, quota, *_ in rollup.tenant_rows
            )
        rows = set(controller.analyzer.monitored_pairs())
        for runtime in controller.tenants.values():  # its own rows only
            seen = {
                pair for pair in rows
                if pair.src.container.task == runtime.task
            }
            assert seen <= set(runtime.pairs)
            assert (seen == runtime.probed_pairs) or hardened
        waves = np.diff(firsts + [len(calls)]) - 1
        assert waves.max() <= MAX_RETRIES
        assert (waves.sum() > 0) == hardened
        for round_index, (first, count) in enumerate(zip(firsts, waves), 1):
            for pairs, at in calls[first + 1:first + 1 + count]:
                assert len(pairs) == len(at) and pairs
                assert (at > spec.round_time(round_index)).all()
                assert (at < spec.round_time(round_index + 1)).all()

    def test_a_held_entrys_draw_key_is_computed_once(self):
        """A pair's draw key is computed by its first walk and kept by
        every re-walk: churn re-walks pairs, and none is keyed twice."""
        spec = fleet_bench_spec(8, total_rounds=24)
        controller = FleetController(spec)
        with counting(fabric_module, "pair_key") as keyed:
            controller.run_rounds(1, spec.total_rounds)
        cache = controller.replica.fabric.resolution_cache
        keyed_pairs = [call.args for call in keyed.call_args_list]
        assert len(keyed_pairs) == len(set(keyed_pairs)) == len(cache)
        assert cache.misses > len(cache)  # pairs were walked again

    def test_an_empty_window_sits_the_round_out(self):
        """A tenant granted no pairs is not sent and not settled (its
        breaker untouched) and loses nothing; the others probe on."""
        spec = lossy(small_fleet_spec(with_fault=False))
        controller = FleetController(spec)
        controller.demands["b"] = dataclasses.replace(
            controller.demands["b"], demand=0
        )
        with counting(ResilientProber, "settle") as settles:
            controller.run_rounds(1, spec.total_rounds)
        a, b = controller.tenants["a"], controller.tenants["b"]
        assert [call.args[0] for call in settles.call_args_list] == (
            [a.prober] * spec.total_rounds
        )
        assert b.prober.breaker.snapshot() == CircuitBreaker().snapshot()
        assert b.probes_sent == b.probes_lost == 0
        assert not b.probed_pairs
        assert set(controller.analyzer.monitored_pairs()) == a.probed_pairs
        assert a.probes_sent == spec.total_rounds * len(a.pairs)
        assert a.probes_lost > 0
        for rollup in controller.rollups:
            assert [row[3:5] for row in rollup.tenant_rows
                    if row[0] == "b"] == [(0, 0)]
