"""Constrained hierarchical clustering of RNIC traffic features.

Implements the grouping step of traffic skeleton inference (§5.1 of the
paper, Equations 1-3): hierarchically cluster STFT features so that RNICs
at the same pipeline position across DP replicas fall into one group,
subject to

* **Eq. 1** — minimize the variance of group sizes (every pipeline replica
  has the same scale),
* **Eq. 2** — the average group size must divide the total RNIC count,
* **Eq. 3** — no two RNICs of the same host may share a group (same-host
  RNICs communicate over NVLink, not the network).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage

from repro.obs.span import open_span

__all__ = ["ClusteringError", "GroupingResult", "constrained_position_groups"]


class ClusteringError(ValueError):
    """Raised when no valid grouping satisfies the constraints."""


@dataclass(frozen=True)
class GroupingResult:
    """Outcome of the constrained grouping."""

    labels: np.ndarray           # group index per input row
    num_groups: int              # k (should equal TP x PP)
    group_size: int              # |c| (should equal DP)
    size_variance: float         # Eq. 1 objective at the chosen cut

    def groups(self) -> List[List[int]]:
        """Members (row indices) of each group."""
        out: List[List[int]] = [[] for _ in range(self.num_groups)]
        for index, label in enumerate(self.labels):
            out[int(label)].append(index)
        return out


def _divisor_candidates(n: int) -> List[int]:
    """Group counts k with n % k == 0 (k = n is legal: DP can be 1)."""
    return [k for k in range(1, n + 1) if n % k == 0]


def _size_variance(labels: np.ndarray, k: int) -> float:
    """Eq. 1: variance of per-group member counts."""
    sizes = np.bincount(labels, minlength=k).astype(np.float64)
    return float(np.var(sizes))


def _violates_host_constraint(
    occupancy: Dict[Tuple[int, Hashable], int]
) -> bool:
    """Eq. 3: any group holding two RNICs of one host?"""
    return any(count > 1 for count in occupancy.values())


def _repair_host_constraint(
    features: np.ndarray,
    labels: np.ndarray,
    hosts: Sequence[Hashable],
    k: int,
    occupancy: Dict[Tuple[int, Hashable], int],
    max_passes: int = 8,
) -> np.ndarray:
    """Greedy moves of duplicate-host members to the nearest-centroid
    group that does not hold their host yet.

    ``occupancy`` ((group, host) -> RNIC count) is kept in step with the
    returned labels.  A centroid is recomputed only when a move touched
    its group, as the same mean over the group's rows (so the same bits).
    """
    labels = labels.copy()
    centroids = [features[labels == g].mean(axis=0) for g in range(k)]
    for _ in range(max_passes):
        moved = False
        for g in range(k):
            by_host: Dict[Hashable, List[int]] = {}
            for m in np.flatnonzero(labels == g):
                by_host.setdefault(hosts[m], []).append(m)
            for host, dup in by_host.items():
                for extra in dup[1:]:
                    best, best_distance = None, np.inf
                    for other in range(k):
                        if other == g or occupancy.get((other, host)):
                            continue
                        distance = float(np.linalg.norm(
                            features[extra] - centroids[other]
                        ))
                        if distance < best_distance:
                            best, best_distance = other, distance
                    if best is not None:
                        labels[extra] = best
                        occupancy[g, host] -= 1
                        occupancy[best, host] = 1
                        centroids[best] = features[labels == best].mean(axis=0)
                        moved = True
            # Nobody asks for g's centroid while its own extras leave.
            centroids[g] = features[labels == g].mean(axis=0)
        if not moved:
            break
    return labels


def constrained_position_groups(
    features: np.ndarray,
    hosts: Sequence[Hashable],
    candidate_group_counts: Optional[Sequence[int]] = None,
    recorder=None,
) -> GroupingResult:
    """Group RNICs by pipeline position under Equations 1-3.

    A cut scores its dendrogram gap minus its Eq. 1 size variance; the
    best-scoring cut that satisfies Eq. 3 wins, ties going to the cut
    listed first.

    Parameters
    ----------
    features:
        (n, d) STFT feature matrix, one row per RNIC.
    hosts:
        Host key of each RNIC (for the Eq. 3 constraint).
    candidate_group_counts:
        Group counts k to try; defaults to every divisor of n, k = n
        (DP = 1) included.  The chosen k equals TP x PP and n / k
        equals DP.
    recorder:
        Optional trace recorder; each Eq. 3 repair is timed as a
        ``skeleton.repair`` span.
    """
    pts = np.asarray(features, dtype=np.float64)
    if pts.ndim != 2:
        raise ClusteringError("features must be a 2-D matrix")
    n = pts.shape[0]
    if len(hosts) != n:
        raise ClusteringError("hosts must align with feature rows")
    if n < 2:
        raise ClusteringError("need at least two RNICs to group")

    candidates = list(candidate_group_counts or _divisor_candidates(n))
    candidates = [k for k in candidates if 1 <= k <= n and n % k == 0]
    if not candidates:
        raise ClusteringError(f"no valid group counts for n={n}")

    tree = linkage(pts, method="ward")
    # Dendrogram gap criterion: cutting into k clusters undoes the last
    # k-1 merges, so the natural k sits where merge heights jump — the
    # step from cheap same-position merges (noise-scale) to expensive
    # cross-position merges.  Unlike a raw cohesion score this is
    # scale-aware: measurement noise inflates both sides of the gap
    # equally and cancels out.
    heights = np.concatenate([[0.0], tree[:, 2]])  # heights[i] = i-th merge

    def height_gap(k: int) -> float:
        # Cut producing k clusters sits between merge n-k and n-k+1.
        # k=1 has no merge above it; giving it a zero gap makes it the
        # tie-break default (it wins exactly when no other cut shows
        # structure — the pure-DP case where all positions coincide).
        if k <= 1:
            return 0.0
        return float(heights[n - k + 1] - heights[n - k])

    gaps = [height_gap(k) for k in candidates]
    # Pigeonhole: fewer groups than the widest host has RNICs cannot
    # satisfy Eq. 3, whatever the repair does.
    widest = max(Counter(hosts).values())
    # A cut ranks by (score, -position in the list).  Its score is at
    # most its gap, so visiting cuts by falling gap (ties in list order)
    # the sweep stops at the first cut whose (gap, -position) already
    # ranks below the best: neither it nor any cut after it can win,
    # and none of them is repaired.
    best: Optional[Tuple[int, np.ndarray, float]] = None
    best_rank = (-np.inf, 0)
    for position in sorted(range(len(candidates)), key=lambda i: -gaps[i]):
        if (gaps[position], -position) < best_rank:
            break
        k = candidates[position]
        if k < widest:
            continue
        labels = fcluster(tree, t=k, criterion="maxclust") - 1
        if labels.max() + 1 != k:
            continue  # the tree cannot produce k clusters at this cut
        occupancy = Counter(zip(labels.tolist(), hosts))
        if _violates_host_constraint(occupancy):
            with open_span(recorder, "skeleton.repair", groups=k):
                labels = _repair_host_constraint(
                    pts, labels, hosts, k, occupancy
                )
            if _violates_host_constraint(occupancy):
                continue
        variance = _size_variance(labels, k)
        rank = (gaps[position] - variance, -position)
        if rank > best_rank:
            best_rank = rank
            best = (k, labels, variance)
    if best is None:
        raise ClusteringError(
            "no candidate group count satisfied the host constraint"
        )
    k, labels, variance = best
    return GroupingResult(
        labels=labels,
        num_groups=k,
        group_size=n // k,
        size_variance=variance,
    )
