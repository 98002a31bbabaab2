"""Property: the Eq. 3 repair rewrite and the gap-ordered cut sweep are
the parent's grouping, bit for bit.

The oracle below is the grouping code as it stood before the occupancy
table, the centroid cache and the pigeonhole skip (commit 87213bb),
copied verbatim: ``_violates_host_constraint`` rescanning labels,
``_repair_host_constraint`` calling ``_best_group_without_host`` (which
rescans every group's members and recomputes every centroid per
candidate), and the candidate loop that tries and repairs every cut in
list order.  Only its cohesion computation is gone, with the field it
filled; it never took part in the choice.  Features come from the real
traffic generator over TP/PP/DP/EP configurations with per-RNIC
sampling jitter; the host layout is drawn freely, so hosts of unequal
width, a host wider than a candidate k, one host per RNIC and k = n all
occur.  A second input duplicates rows of a small integer lattice and shuffles
the candidate list, so cuts tie on gap and on score and the
first-listed tie-break is pinned.
"""

from collections import Counter
from functools import lru_cache
from typing import Dict, Hashable, List, Optional, Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import fcluster, linkage

from repro.analysis.clustering import (
    ClusteringError,
    GroupingResult,
    _divisor_candidates,
    _repair_host_constraint,
    _size_variance,
    _violates_host_constraint,
    constrained_position_groups,
)
from repro.analysis.stft import feature_matrix
from repro.workloads.scenarios import build_scenario

# ----------------------------------------------------------------------
# The oracle: verbatim from 87213bb, renamed with an ``oracle_`` prefix.
# ----------------------------------------------------------------------


def oracle_violates_host_constraint(
    labels: np.ndarray, hosts: Sequence[Hashable], k: int
) -> bool:
    """Eq. 3: any group holding two RNICs of one host?"""
    seen: Dict[tuple, int] = {}
    for index, label in enumerate(labels):
        key = (int(label), hosts[index])
        seen[key] = seen.get(key, 0) + 1
        if seen[key] > 1:
            return True
    return False


def oracle_repair_host_constraint(
    features: np.ndarray,
    labels: np.ndarray,
    hosts: Sequence[Hashable],
    k: int,
    max_passes: int = 8,
) -> np.ndarray:
    """Greedy swaps moving duplicate-host members to their best other group."""
    labels = labels.copy()
    for _ in range(max_passes):
        moved = False
        for g in range(k):
            members = np.flatnonzero(labels == g)
            by_host: Dict[Hashable, List[int]] = {}
            for m in members:
                by_host.setdefault(hosts[m], []).append(m)
            for _host, dup in by_host.items():
                for extra in dup[1:]:
                    target = oracle_best_group_without_host(
                        features, labels, hosts, extra, k
                    )
                    if target is not None:
                        labels[extra] = target
                        moved = True
        if not moved:
            break
    return labels


def oracle_best_group_without_host(
    features: np.ndarray,
    labels: np.ndarray,
    hosts: Sequence[Hashable],
    index: int,
    k: int,
) -> Optional[int]:
    """The nearest-centroid group that does not contain ``index``'s host."""
    best, best_distance = None, np.inf
    for g in range(k):
        if g == labels[index]:
            continue
        members = np.flatnonzero(labels == g)
        if any(hosts[m] == hosts[index] for m in members):
            continue
        if len(members) == 0:
            distance = 0.0
        else:
            centroid = features[members].mean(axis=0)
            distance = float(np.linalg.norm(features[index] - centroid))
        if distance < best_distance:
            best, best_distance = g, distance
    return best


def oracle_constrained_position_groups(
    features: np.ndarray,
    hosts: Sequence[Hashable],
    candidate_group_counts: Optional[Sequence[int]] = None,
    cohesion_weight: float = 1.0,
) -> GroupingResult:
    pts = np.asarray(features, dtype=np.float64)
    n = pts.shape[0]
    candidates = list(candidate_group_counts or _divisor_candidates(n))
    candidates = [k for k in candidates if 1 <= k <= n and n % k == 0]
    tree = linkage(pts, method="ward")
    heights = np.concatenate([[0.0], tree[:, 2]])

    def height_gap(k: int) -> float:
        if k <= 1:
            return 0.0
        return float(heights[n - k + 1] - heights[n - k])

    best: Optional[GroupingResult] = None
    best_score = -np.inf
    for k in candidates:
        labels = fcluster(tree, t=k, criterion="maxclust") - 1
        if labels.max() + 1 != k:
            continue  # the tree cannot produce k clusters at this cut
        if oracle_violates_host_constraint(labels, hosts, k):
            labels = oracle_repair_host_constraint(pts, labels, hosts, k)
            if oracle_violates_host_constraint(labels, hosts, k):
                continue
        variance = _size_variance(labels, k)
        score = height_gap(k) - cohesion_weight * variance
        if score > best_score:
            best_score = score
            best = GroupingResult(
                labels=labels,
                num_groups=k,
                group_size=n // k,
                size_variance=variance,
            )
    if best is None:
        raise ClusteringError(
            "no candidate group count satisfied the host constraint"
        )
    return best


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

#: (containers, GPUs per container, TP, PP, EP); DP follows.
CONFIGS = (
    (4, 4, 4, 2, 1),    # the tier-1 default: k = 8 over 4-RNIC hosts
    (4, 4, 4, 1, 1),    # pure TP x DP: the chosen k equals a host's width
    (4, 4, 2, 2, 1),
    (8, 2, 2, 2, 1),
    (8, 2, 2, 1, 2),    # MoE: expert parallelism inside DP
    (8, 4, 4, 2, 2),
    (6, 4, 4, 3, 1),
)


@lru_cache(maxsize=None)
def observed(config):
    """Throughput series (in endpoint order) and the real host of each
    endpoint for one parallelism configuration."""
    containers, gpus, tp, pp, ep = config
    scenario = build_scenario(
        num_containers=containers, gpus_per_container=gpus,
        tp=tp, pp=pp, ep=ep, seed=31, watch=False,
    )
    series = scenario.generator.all_series(300.0)
    endpoints = sorted(series)
    return (
        [series[e] for e in endpoints],
        [str(scenario.task.containers[e.container].host)
         for e in endpoints],
    )


def draw_hosts(draw, real_hosts):
    n = len(real_hosts)
    layout = draw(st.sampled_from(("real", "drawn", "one_wide")))
    if layout == "real":
        return list(real_hosts)
    if layout == "drawn":
        # Anything from one host holding every RNIC to one host each.
        num_hosts = draw(st.integers(1, n))
        return draw(st.lists(
            st.integers(0, num_hosts - 1), min_size=n, max_size=n
        ))
    # One host as wide as the draw says, the rest one RNIC each.
    wide = set(draw(st.lists(
        st.integers(0, n - 1), min_size=2, max_size=n, unique=True
    )))
    return [-1 if i in wide else i for i in range(n)]


@st.composite
def grouping_inputs(draw):
    series, real_hosts = observed(draw(st.sampled_from(CONFIGS)))
    n = len(series)
    max_jitter = draw(st.integers(0, 4))
    shifts = draw(st.lists(
        st.integers(0, max_jitter), min_size=n, max_size=n
    ))
    features = feature_matrix(
        [np.roll(s, shift) for s, shift in zip(series, shifts)]
    )
    return features, draw_hosts(draw, real_hosts)


@st.composite
def tied_inputs(draw):
    """A few distinct rows on a small integer lattice, each duplicated,
    so merge heights repeat exactly and cuts tie on gap and on score
    (STFT rows never do); the divisors in a drawn order, a drawn prefix
    of them."""
    n = draw(st.sampled_from((4, 6, 8, 12, 16)))
    dims = draw(st.integers(1, 3))
    distinct = draw(st.lists(
        st.lists(st.integers(0, 2), min_size=dims, max_size=dims),
        min_size=2, max_size=n,
    ))
    rows = draw(st.lists(
        st.integers(0, len(distinct) - 1), min_size=n, max_size=n
    ))
    features = np.asarray(distinct, dtype=np.float64)[rows]
    order = draw(st.permutations(_divisor_candidates(n)))
    counts = order[:draw(st.integers(1, len(order)))]
    return features, draw_hosts(draw, list(range(n))), counts


#: Found by that strategy: k = 6 scores 1 - 1 = 0 (gap 1, one RNIC of
#: variance), exactly k = 1's gap, so whichever is listed first wins —
#: the one tie a sweep that stops at an equal gap gets wrong.
GAP_EQUALS_BEST = (
    np.asarray([
        [2, 2, 0], [2, 0, 0], [1, 1, 2], [1, 1, 1],
        [0, 1, 1], [1, 1, 0], [0, 2, 0],
    ], dtype=np.float64)[[6, 3, 1, 6, 2, 2, 4, 4, 4, 5, 4, 1]],
    list(range(12)),
)


def grouped(function, features, hosts, counts=None):
    try:
        return function(features, hosts, candidate_group_counts=counts)
    except ClusteringError as error:
        return str(error)


def assert_same_grouping(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert isinstance(got, GroupingResult), got
    assert np.array_equal(got.labels, want.labels)
    assert (got.num_groups, got.group_size) == (
        want.num_groups, want.group_size
    )
    # Bit-equal, not approximately: same floats from the same sums.
    assert got.size_variance == want.size_variance


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(grouping_inputs())
def test_grouping_is_the_oracles(inputs):
    features, hosts = inputs
    assert_same_grouping(
        grouped(constrained_position_groups, features, hosts),
        grouped(oracle_constrained_position_groups, features, hosts),
    )


@settings(max_examples=120, deadline=None)
@given(tied_inputs())
@example((*GAP_EQUALS_BEST, [1, 6]))
@example((*GAP_EQUALS_BEST, [6, 1]))
def test_tied_cuts_go_to_the_first_listed_as_in_the_oracle(inputs):
    features, hosts, counts = inputs
    assert_same_grouping(
        grouped(constrained_position_groups, features, hosts, counts),
        grouped(oracle_constrained_position_groups, features, hosts, counts),
    )


@settings(max_examples=120, deadline=None)
@given(grouping_inputs())
def test_repair_moves_the_labels_the_oracle_moves(inputs):
    """Every cut of the tree, feasible or not, straight through the two
    repairs; the occupancy table must end up describing the labels."""
    features, hosts = inputs
    n = len(hosts)
    tree = linkage(features, method="ward")
    for k in _divisor_candidates(n):
        labels = fcluster(tree, t=k, criterion="maxclust") - 1
        if labels.max() + 1 != k:
            continue
        occupancy = Counter(zip(labels.tolist(), hosts))
        assert _violates_host_constraint(occupancy) == (
            oracle_violates_host_constraint(labels, hosts, k)
        )
        want = oracle_repair_host_constraint(features, labels, hosts, k)
        got = _repair_host_constraint(
            features, labels, hosts, k, occupancy
        )
        assert np.array_equal(got, want), k
        assert +occupancy == Counter(zip(got.tolist(), hosts)), k
        assert _violates_host_constraint(occupancy) == (
            oracle_violates_host_constraint(want, hosts, k)
        )


def test_a_host_wider_than_every_candidate_is_still_an_error():
    """The pigeonhole skip must leave the parent's error in place."""
    series, _ = observed(CONFIGS[0])
    features = feature_matrix(series)
    hosts = ["one-host"] * len(series)
    with pytest.raises(ClusteringError, match="host constraint"):
        constrained_position_groups(
            features, hosts, candidate_group_counts=[2, 4, 8]
        )
    # k = n is the one cut a single host allows.
    assert constrained_position_groups(
        features, hosts
    ).num_groups == len(series)
