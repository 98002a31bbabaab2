"""Tests for constrained hierarchical clustering (Equations 1-3)."""

import numpy as np
import pytest

from repro.analysis.clustering import (
    ClusteringError,
    constrained_position_groups,
)


def synthetic_groups(num_groups=4, group_size=4, spread=0.02, seed=0):
    """Well-separated clusters with round-robin host assignment."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, size=(num_groups, 8))
    features, hosts = [], []
    for g in range(num_groups):
        for member in range(group_size):
            features.append(centers[g] + rng.normal(0, spread, 8))
            hosts.append(f"host-{member}")  # one member per host per group
    return np.asarray(features), hosts


class TestGrouping:
    def test_recovers_true_group_count(self):
        features, hosts = synthetic_groups(4, 4)
        result = constrained_position_groups(features, hosts)
        assert result.num_groups == 4
        assert result.group_size == 4

    def test_group_membership_exact(self):
        features, hosts = synthetic_groups(3, 5)
        result = constrained_position_groups(features, hosts)
        groups = [set(g) for g in result.groups()]
        expected = [set(range(g * 5, (g + 1) * 5)) for g in range(3)]
        for want in expected:
            assert want in groups

    def test_equal_sizes_have_zero_variance(self):
        features, hosts = synthetic_groups(4, 4)
        result = constrained_position_groups(features, hosts)
        assert result.size_variance == 0.0

    def test_host_constraint_respected(self):
        features, hosts = synthetic_groups(4, 4)
        result = constrained_position_groups(features, hosts)
        for group in result.groups():
            host_set = {hosts[i] for i in group}
            assert len(host_set) == len(group)

    def test_candidate_counts_can_be_restricted(self):
        features, hosts = synthetic_groups(4, 4)
        result = constrained_position_groups(
            features, hosts, candidate_group_counts=[2, 4, 8]
        )
        assert result.num_groups == 4

    def test_degenerate_all_singleton_cut_excluded(self):
        # k == n (DP = 1) is a candidate, but its gap loses to the
        # real groups'.
        features, hosts = synthetic_groups(2, 3)
        result = constrained_position_groups(features, hosts)
        assert result.num_groups < len(hosts)

    def test_mismatched_hosts_rejected(self):
        features, hosts = synthetic_groups(2, 2)
        with pytest.raises(ClusteringError):
            constrained_position_groups(features, hosts[:-1])

    def test_single_row_rejected(self):
        with pytest.raises(ClusteringError):
            constrained_position_groups(np.zeros((1, 4)), ["h0"])

    def test_1d_features_rejected(self):
        with pytest.raises(ClusteringError):
            constrained_position_groups(np.zeros(4), list("abcd"))

    def test_repair_moves_same_host_duplicates(self):
        # Two clusters whose natural split violates the host constraint:
        # both members of host-0 land in cluster 0 by feature distance.
        features = np.asarray([
            [0.0, 0.0], [0.05, 0.0],   # cluster A: host-0 twice!
            [5.0, 5.0], [5.05, 5.0],   # cluster B: host-1 twice!
        ])
        hosts = ["host-0", "host-0", "host-1", "host-1"]
        result = constrained_position_groups(
            features, hosts, candidate_group_counts=[2]
        )
        for group in result.groups():
            host_set = {hosts[i] for i in group}
            assert len(host_set) == len(group)
