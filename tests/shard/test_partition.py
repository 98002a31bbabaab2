"""Tests for the topology-aware pair partitioner."""

import pytest

from repro.shard import (
    TopologyPartitioner,
    build_replica,
    pair_universe,
    place_tenants,
)

from tests.shard.conftest import small_spec


@pytest.fixture(scope="module")
def universe():
    spec = small_spec(with_faults=False)
    scenario = build_replica(spec)
    pairs = pair_universe(spec, scenario)
    return scenario, pairs


class TestGrouping:
    def test_every_pair_assigned_exactly_once(self, universe):
        scenario, pairs = universe
        plan = TopologyPartitioner(scenario.cluster).partition(pairs, 3)
        assert sorted(plan.all_pairs()) == sorted(pairs)
        seen = set()
        for shard_pairs in plan.assignments:
            assert not (seen & set(shard_pairs))
            seen.update(shard_pairs)

    def test_source_host_stays_on_one_shard(self, universe):
        """The speedup invariant: a container's pairs (hence its one
        overlay agent) must never be split across shards."""
        scenario, pairs = universe
        plan = TopologyPartitioner(scenario.cluster).partition(pairs, 4)
        owner = {}
        for shard_id, shard_pairs in enumerate(plan.assignments):
            for pair in shard_pairs:
                container = pair.src.container
                assert owner.setdefault(container, shard_id) == shard_id

    def test_cut_is_contiguous_in_segment_major_order(self, universe):
        scenario, pairs = universe
        plan = TopologyPartitioner(scenario.cluster).partition(pairs, 3)
        flat = [key for keys in plan.group_keys for key in keys]
        assert flat == sorted(flat)

    def test_loads_are_balanced(self, universe):
        scenario, pairs = universe
        partitioner = TopologyPartitioner(scenario.cluster)
        plan = partitioner.partition(pairs, 4)
        counts = plan.pair_counts()
        assert sum(counts) == len(pairs)
        groups = {}
        for pair in pairs:
            groups.setdefault(partitioner.group_key(pair), []).append(pair)
        largest_group = max(len(members) for members in groups.values())
        assert max(counts) - min(counts) <= largest_group

    def test_partition_is_deterministic(self, universe):
        scenario, pairs = universe
        first = TopologyPartitioner(scenario.cluster).partition(pairs, 4)
        second = TopologyPartitioner(scenario.cluster).partition(
            list(reversed(list(pairs))), 4
        )
        assert first.assignments == second.assignments
        assert first.group_keys == second.group_keys


class TestPlanQueries:
    def test_shard_of_finds_owner(self, universe):
        scenario, pairs = universe
        plan = TopologyPartitioner(scenario.cluster).partition(pairs, 2)
        for pair in pairs:
            assert pair in plan.pairs_of(plan.shard_of(pair))

    def test_shard_of_unknown_pair_raises(self, universe):
        scenario, pairs = universe
        plan = TopologyPartitioner(scenario.cluster).partition(
            list(pairs)[:4], 2
        )
        missing = sorted(set(pairs) - set(plan.all_pairs()))[0]
        with pytest.raises(KeyError):
            plan.shard_of(missing)

    def test_invalid_shard_count_rejected(self, universe):
        scenario, pairs = universe
        with pytest.raises(ValueError):
            TopologyPartitioner(scenario.cluster).partition(pairs, 0)


class TestTenantPlacement:
    def test_lpt_balances_the_makespan(self):
        weights = {"a": 7, "b": 6, "c": 5, "d": 4, "e": 3, "f": 2}
        placement = place_tenants(weights, 3)
        loads = placement.loads()
        assert sum(loads) == sum(weights.values())
        assert max(loads) == 9  # 7+2, 6+3, 5+4 — LPT is optimal here
        assert placement.all_tenants() == sorted(weights)

    def test_placement_is_deterministic(self):
        weights = {"a": 5, "b": 5, "c": 5, "d": 5}
        first = place_tenants(weights, 2)
        second = place_tenants(
            dict(reversed(list(weights.items()))), 2
        )
        assert first == second

    def test_shard_of_and_tenants_of_agree(self):
        placement = place_tenants({"a": 3, "b": 2, "c": 1}, 2)
        for name in ("a", "b", "c"):
            shard = placement.shard_of(name)
            assert name in placement.tenants_of(shard)
        with pytest.raises(KeyError):
            placement.shard_of("ghost")

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            place_tenants({"a": 1}, 0)
        with pytest.raises(ValueError):
            place_tenants({"a": -1}, 2)

    def test_more_shards_than_tenants_leaves_idle_shards(self):
        placement = place_tenants({"a": 1, "b": 1}, 4)
        assert placement.num_shards == 4
        assert sum(1 for names in placement.assignments if names) == 2

