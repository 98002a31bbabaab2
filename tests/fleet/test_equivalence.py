"""The fleet-equivalence gate: same spec, same per-tenant results —
independent of worker count and coordinator failover history.

Includes the property test: for generated fleets with tenant churn,
arrivals, and departures, the comparable surfaces are bit-identical
across shard counts and across a mid-run worker kill + adoption
replay.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.equivalence import EquivalenceError, compare
from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.equivalence import run_fleet, verify_fleet_equivalence
from repro.fleet.spec import FleetSpec, TenantSpec

from tests.fleet.conftest import small_fleet_spec


class TestGate:
    def test_gate_passes_with_chaos_and_failover(self):
        baseline = verify_fleet_equivalence(
            worker_counts=(2,), failover=True
        )
        assert baseline.event_summary
        assert baseline.verdict_summary
        assert baseline.blacklist_summary

    def test_gate_detects_divergence(self):
        spec = small_fleet_spec()
        baseline = run_fleet(spec, num_workers=1)
        other = run_fleet(
            dataclasses.replace(
                spec,
                probe_budget_per_round=(
                    spec.probe_budget_per_round // 2
                ),
            ),
            num_workers=1,
        )
        with pytest.raises(EquivalenceError, match="rollups diverged"):
            compare(
                "mutated budget",
                baseline.comparable(), other.comparable(),
            )

    def test_fault_free_spec_fails_as_vacuous(self):
        with pytest.raises(EquivalenceError, match="vacuous"):
            verify_fleet_equivalence(
                small_fleet_spec(with_fault=False), worker_counts=(2,)
            )

    def test_failover_without_reassignment_is_flagged(self):
        """A kill schedule naming a worker that owns nothing must not
        pass as a failover exercise."""
        spec = small_fleet_spec()
        result = run_fleet(
            spec, num_workers=6, kill_schedule={5: 2}  # > tenant count
        )
        assert not result.reassignments

    def test_gate_rejects_a_failover_leg_that_never_reassigned(self):
        # One chunk only: the kill scheduled for chunk 2 never fires.
        spec = small_fleet_spec(total_rounds=4)
        with pytest.raises(EquivalenceError, match="reassignments"):
            verify_fleet_equivalence(spec, worker_counts=())

    def test_kill_schedule_rejects_unknown_worker(self):
        with pytest.raises(ValueError, match="out of range"):
            FleetCoordinator(
                small_fleet_spec(), num_workers=2, kill_schedule={9: 2}
            )


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("num_workers", [2, 3])
    def test_sharded_matches_single_worker(self, num_workers):
        spec = small_fleet_spec(churn_rate=0.3)
        baseline = run_fleet(spec, num_workers=1)
        candidate = run_fleet(spec, num_workers=num_workers)
        assert baseline.event_summary
        assert candidate.comparable() == baseline.comparable()

    def test_failover_matches_single_worker(self):
        spec = small_fleet_spec(churn_rate=0.3)
        baseline = run_fleet(spec, num_workers=1)
        candidate = run_fleet(
            spec, num_workers=2, kill_schedule={0: 2}
        )
        assert candidate.reassignments
        assert candidate.comparable() == baseline.comparable()

    def test_excess_workers_idle_harmlessly(self):
        spec = small_fleet_spec()
        baseline = run_fleet(spec, num_workers=1)
        candidate = run_fleet(spec, num_workers=6)  # > tenant count
        assert candidate.comparable() == baseline.comparable()


@st.composite
def churning_fleets(draw):
    """A small fleet with churn, staggered arrivals, and a departure."""
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    churn_a = draw(st.sampled_from([0.0, 0.3, 0.6]))
    churn_b = draw(st.sampled_from([0.0, 0.4]))
    late_arrival = draw(st.integers(min_value=2, max_value=4))
    departure = draw(st.sampled_from([None, 6]))
    budget = draw(st.sampled_from([30, 48, 10 ** 6]))
    tenants = (
        TenantSpec(
            name="a", num_containers=4, gpus_per_container=4,
            churn_rate=churn_a,
        ),
        TenantSpec(
            name="b", num_containers=4, gpus_per_container=4,
            churn_rate=churn_b, arrival_round=late_arrival,
            departure_round=departure, coverage_floor=0.5,
        ),
        TenantSpec(
            name="c", num_containers=4, gpus_per_container=4,
            weight=2.0,
        ),
    )
    base = small_fleet_spec(seed=seed, total_rounds=6, budget=budget)
    return dataclasses.replace(
        base, tenants=tenants, chunk_rounds=3,
    )


class TestChurnProperty:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        spec=churning_fleets(),
        num_workers=st.sampled_from([2, 3]),
        victim=st.integers(min_value=0, max_value=2),
        at_chunk=st.sampled_from([1, 2]),
    )
    def test_churny_fleet_is_bit_identical_across_shards_and_failover(
        self, spec: FleetSpec, num_workers: int, victim: int,
        at_chunk: int,
    ):
        baseline = run_fleet(spec, num_workers=1)
        sharded = run_fleet(spec, num_workers=num_workers)
        assert sharded.comparable() == baseline.comparable()
        failed_over = run_fleet(
            spec, num_workers=num_workers,
            kill_schedule={victim % num_workers: at_chunk},
        )
        assert failed_over.reassignments
        assert failed_over.comparable() == baseline.comparable()
