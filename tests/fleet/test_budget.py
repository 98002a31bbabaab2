"""Tests for the probe-budget scheduler (fleet admission control).

The scheduler's contract: every admitted tenant's coverage floor is
honored every round, the global probes-per-round budget is never
exceeded, the schedule is a pure function of its inputs, and pair
rotation reaches every pair — no tenant and no pair can starve.
"""

import math

import pytest

from repro.core.pinglist import ProbePair
from repro.cluster.identifiers import ContainerId, EndpointId, TaskId
from repro.fleet.budget import (
    FleetBudgetError,
    ProbeBudgetScheduler,
    TenantDemand,
)


def demand(name, pairs, floor=0.25, weight=1.0):
    return TenantDemand(
        name=name, demand=pairs, coverage_floor=floor, weight=weight
    )


def pair_universe(count, task=0):
    container = ContainerId(TaskId(task), 0)
    other = ContainerId(TaskId(task), 1)
    return [
        ProbePair.canonical(
            EndpointId(container, slot), EndpointId(other, slot)
        )
        for slot in range(count)
    ]


class TestFloors:
    def test_floor_scales_with_demand(self):
        assert demand("a", 40, floor=0.25).floor == 10
        assert demand("a", 40, floor=0.5).floor == 20

    def test_floor_is_at_least_one_pair(self):
        assert demand("a", 3, floor=0.01).floor == 1

    def test_floor_never_exceeds_demand(self):
        assert demand("a", 2, floor=1.0).floor == 2
        assert demand("a", 0, floor=1.0).floor == 0

    def test_every_admitted_tenant_gets_its_floor(self):
        scheduler = ProbeBudgetScheduler(30)
        demands = [
            demand("a", 40, floor=0.25),
            demand("b", 40, floor=0.25),
            demand("c", 20, floor=0.5),
        ]
        allocation = scheduler.allocate(1, demands)
        for name, _, floor, quota in allocation.grants:
            assert quota >= floor, name

    def test_floor_overflow_raises(self):
        scheduler = ProbeBudgetScheduler(10)
        demands = [demand("a", 40, floor=0.5)]  # floor 20 > budget 10
        assert not scheduler.fits(demands)
        with pytest.raises(FleetBudgetError):
            scheduler.allocate(1, demands)


class TestBudgetCeiling:
    @pytest.mark.parametrize("budget", [8, 17, 64, 1000])
    def test_budget_never_exceeded(self, budget):
        scheduler = ProbeBudgetScheduler(budget)
        demands = [
            demand("a", 40, floor=0.1, weight=2.0),
            demand("b", 31, floor=0.1),
            demand("c", 7, floor=0.1),
        ]
        if not scheduler.fits(demands):
            pytest.skip("floors exceed this budget")
        allocation = scheduler.allocate(1, demands)
        assert allocation.total_granted <= budget

    def test_leftover_budget_is_spent_when_demand_remains(self):
        scheduler = ProbeBudgetScheduler(50)
        demands = [demand("a", 40), demand("b", 40)]
        allocation = scheduler.allocate(1, demands)
        assert allocation.total_granted == 50

    def test_quota_never_exceeds_demand(self):
        scheduler = ProbeBudgetScheduler(1000)
        demands = [demand("a", 12), demand("b", 7)]
        allocation = scheduler.allocate(1, demands)
        assert allocation.quota_of("a") == 12
        assert allocation.quota_of("b") == 7

    def test_weights_shape_the_surplus(self):
        scheduler = ProbeBudgetScheduler(60)
        demands = [
            demand("heavy", 40, weight=2.0),
            demand("light", 40, weight=1.0),
        ]
        allocation = scheduler.allocate(1, demands)
        assert allocation.quota_of("heavy") > allocation.quota_of(
            "light"
        )


class TestDeterminism:
    def test_allocation_is_a_pure_function(self):
        scheduler = ProbeBudgetScheduler(37)
        demands = [
            demand("a", 40, floor=0.3, weight=1.5),
            demand("b", 23, floor=0.2),
            demand("c", 16, floor=0.5, weight=0.5),
        ]
        first = scheduler.allocate(5, demands)
        second = ProbeBudgetScheduler(37).allocate(
            5, list(reversed(demands))
        )
        assert first == second

    def test_selection_is_a_pure_function_of_round(self):
        pairs = pair_universe(20)  # sorted, as select_pairs expects
        assert pairs == sorted(pairs)
        first = ProbeBudgetScheduler.select_pairs(pairs, 7, 3)
        second = ProbeBudgetScheduler.select_pairs(tuple(pairs), 7, 3)
        assert first == second == sorted(first)
        assert first != ProbeBudgetScheduler.select_pairs(pairs, 7, 4)
        # Round 3 of quota 7 over 20 wraps (14..20 -> 14..19 + 0): the
        # selection comes back sorted without being re-sorted.
        assert first == sorted(pairs[14:] + pairs[:1])


class TestStarvation:
    def test_rotation_covers_every_pair(self):
        """Regression: a fixed-window selection (always the first
        ``quota`` pairs) would starve the tail of the universe
        forever.  The rotating window must reach every pair within
        ``ceil(n / quota)`` rounds."""
        pairs = pair_universe(23)
        quota = 7
        seen = set()
        horizon = math.ceil(len(pairs) / quota)
        for round_index in range(1, horizon + 1):
            seen.update(
                ProbeBudgetScheduler.select_pairs(
                    pairs, quota, round_index
                )
            )
        assert seen == set(pairs)

    def test_no_admitted_tenant_is_ever_granted_zero(self):
        """Starvation-free by construction: floors are at least one
        pair, so even a tenant with weight 0.001 against heavy
        competitors probes every round."""
        scheduler = ProbeBudgetScheduler(25)
        demands = [
            demand("whale", 40, floor=0.25, weight=100.0),
            demand("minnow", 40, floor=0.25, weight=0.001),
        ]
        for round_index in range(1, 20):
            allocation = scheduler.allocate(round_index, demands)
            assert allocation.quota_of("minnow") >= 10  # its floor

    def test_selection_window_wraps_without_duplicates(self):
        pairs = pair_universe(10)
        selected = ProbeBudgetScheduler.select_pairs(pairs, 7, 2)
        assert len(selected) == 7
        assert len(set(selected)) == 7

    def test_quota_at_least_universe_selects_everything(self):
        pairs = pair_universe(5)
        selected = ProbeBudgetScheduler.select_pairs(pairs, 9, 4)
        assert sorted(selected) == sorted(pairs)
