"""Batch-partition invariance of pairwise probe draws on a real fabric.

The sharded plane's equivalence rests on one property: a probe's
outcome is a pure function of (seed, pair, time), never of how the
round's probes were batched or which monitor sent them.  These tests
pin that property at both layers — the raw draw source and a replica
fabric probing the same pairs under different groupings.
"""

import numpy as np

from repro.network.draws import PairwiseDrawSource
from repro.shard import build_replica, pair_universe

from tests.conftest import draw_keys
from tests.shard.conftest import small_spec


def _endpoints(spec):
    scenario = build_replica(spec)
    return [
        (pair.src, pair.dst)
        for pair in pair_universe(spec, scenario)
    ]


class TestDrawSource:
    def test_one_batch_equals_many_batches(self):
        endpoints = _endpoints(small_spec(with_faults=False))
        source = PairwiseDrawSource(seed=0)
        whole = source.uniforms(draw_keys(endpoints), at=4.0)
        rebuilt = np.vstack([
            source.uniforms(draw_keys([pair]), at=4.0)
            for pair in endpoints
        ])
        np.testing.assert_array_equal(whole, rebuilt)

    def test_order_does_not_matter(self):
        endpoints = _endpoints(small_spec(with_faults=False))
        source = PairwiseDrawSource(seed=3)
        keys = draw_keys(endpoints)
        forward = source.uniforms(keys, at=2.0)
        backward = source.uniforms(keys[::-1], at=2.0)
        np.testing.assert_array_equal(forward, backward[::-1])

    def test_time_and_seed_both_matter(self):
        endpoints = _endpoints(small_spec(with_faults=False))[:4]
        keys = draw_keys(endpoints)
        base = PairwiseDrawSource(seed=0).uniforms(keys, 2.0)
        for other in (
            PairwiseDrawSource(seed=1).uniforms(keys, 2.0),
            PairwiseDrawSource(seed=0).uniforms(keys, 4.0),
        ):
            assert not np.array_equal(base, other)

    def test_draws_are_unit_interval(self):
        endpoints = _endpoints(small_spec(with_faults=False))
        source = PairwiseDrawSource(seed=0)
        block = source.uniforms(draw_keys(endpoints), 6.0)
        assert block.shape == (len(endpoints), 5)
        assert np.all(block >= 0.0) and np.all(block < 1.0)


class TestFabricInvariance:
    def test_split_probing_matches_whole_probing(self):
        """Two replicas probe the same universe — one in a single
        batch, one split down the middle — and must observe identical
        per-probe outcomes."""
        spec = small_spec(with_faults=False)
        whole_scenario = build_replica(spec)
        split_scenario = build_replica(spec)
        pairs = pair_universe(spec, whole_scenario)
        cut = len(pairs) // 2

        whole = whole_scenario.fabric.send_probe_batch(pairs, 2.0)
        split = (
            split_scenario.fabric.send_probe_batch(pairs[:cut], 2.0)
            + split_scenario.fabric.send_probe_batch(pairs[cut:], 2.0)
        )
        assert len(whole) == len(split) == len(pairs)
        for left, right in zip(whole, split):
            assert (left.src, left.dst) == (right.src, right.dst)
            assert left.lost == right.lost
            assert left.latency_us == right.latency_us
            assert left.reason == right.reason
