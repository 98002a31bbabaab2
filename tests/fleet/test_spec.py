"""Tests for the fleet specification layer."""

import pytest

from repro.fleet.spec import (
    FleetSpec,
    TenantSpec,
    fleet_bench_spec,
    tenant_endpoints,
    tenant_pairs,
)


def tenant(**overrides):
    defaults = dict(name="alpha", num_containers=4, gpus_per_container=4)
    defaults.update(overrides)
    return TenantSpec(**defaults)


class TestTenantSpec:
    def test_defaults_are_valid(self):
        spec = tenant()
        assert spec.endpoints == 16
        assert spec.present_at(1)
        assert spec.present_at(10 ** 6)

    def test_departure_round_is_exclusive(self):
        spec = tenant(arrival_round=3, departure_round=7)
        assert not spec.present_at(2)
        assert spec.present_at(3)
        assert spec.present_at(6)
        assert not spec.present_at(7)

    @pytest.mark.parametrize("overrides", [
        dict(num_containers=1),
        dict(num_containers=3),  # 12 GPUs not divisible by tp*pp=8
        dict(arrival_round=0),
        dict(departure_round=1, arrival_round=1),
        dict(churn_rate=1.5),
        dict(coverage_floor=0.0),
        dict(coverage_floor=1.5),
        dict(weight=0.0),
    ])
    def test_invalid_shapes_rejected(self, overrides):
        with pytest.raises(ValueError):
            tenant(**overrides)


class TestFleetSpec:
    def test_duplicate_tenant_names_rejected(self):
        with pytest.raises(ValueError):
            FleetSpec(tenants=(tenant(), tenant()))

    def test_round_times_are_one_based(self):
        spec = FleetSpec(probe_interval_s=2.0, tenants=(tenant(),))
        assert spec.round_time(1) == 2.0
        assert spec.round_time(5) == 10.0

    def test_derived_segments_fit_peak_demand(self):
        spec = FleetSpec(tenants=(
            tenant(name="a", num_containers=8),
            tenant(name="b", num_containers=8),
        ))
        assert spec.num_hosts >= 16
        assert spec.endpoint_capacity >= spec.peak_containers() * 4

    def test_task_ids_follow_spec_order(self):
        spec = FleetSpec(tenants=(
            tenant(name="zeta"), tenant(name="alpha"),
        ))
        assert spec.task_id_of("zeta").index == 0
        assert spec.task_id_of("alpha").index == 1
        with pytest.raises(KeyError):
            spec.task_id_of("missing")


class TestPairUniverse:
    def test_pairs_are_placement_free_and_sorted(self):
        spec = FleetSpec(tenants=(tenant(name="a"),))
        task = spec.task_id_of("a")
        endpoints = tenant_endpoints(spec.tenant("a"), task)
        assert type(endpoints) is list and endpoints == sorted(endpoints)
        pairs = tenant_pairs(spec.tenant("a"), task)
        assert pairs == sorted(pairs)
        for pair in pairs:
            assert pair.src.container.task == task
            assert pair.dst.container.task == task

    def test_pair_count_known_before_placement(self):
        """Admission control needs each tenant's probe demand before
        any container is placed; the universe is a pure function of
        the tenant shape."""
        spec = FleetSpec(tenants=(
            tenant(name="a", num_containers=8),
            tenant(name="b", num_containers=8),
        ))
        pairs_a = tenant_pairs(spec.tenant("a"), spec.task_id_of("a"))
        pairs_b = tenant_pairs(spec.tenant("b"), spec.task_id_of("b"))
        assert len(pairs_a) == len(pairs_b)
        assert not set(pairs_a) & set(pairs_b)


class TestFleetBenchSpec:
    def test_gate_shape_covers_every_lifecycle_edge(self):
        spec = fleet_bench_spec(4, total_rounds=12)
        assert spec.endpoint_capacity == 512
        assert {t.arrival_round for t in spec.tenants} == {1, 2, 3, 4}
        assert [t.departure_round for t in spec.tenants] == [
            None, None, 11, None,
        ]
        assert any(t.churn_rate for t in spec.tenants)
        assert spec.faults and spec.monitor_faults

    def test_budget_binds_but_covers_every_floor(self):
        spec = fleet_bench_spec(4)
        demand = sum(
            len(tenant_pairs(t, spec.task_id_of(t.name)))
            for t in spec.tenants
        )
        assert spec.probe_budget_per_round == int(demand * 0.6)

    def test_short_runs_have_no_departure(self):
        spec = fleet_bench_spec(4, total_rounds=4)
        assert all(t.departure_round is None for t in spec.tenants)
