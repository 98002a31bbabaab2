"""Topology-aware probe-pair partitioning for the sharded plane.

The partitioner groups probe pairs by their *source host*, with group
keys ordered segment-major.  Two properties follow:

* Every container's pairs land on exactly one shard, so each container
  runs exactly one overlay agent plane-wide: one sidecar, one circuit
  breaker and one monitor-fault trajectory per container, as in a
  single-process run.  (An earlier per-rail grouping broke that — a
  host's eight rails land on eight different ToRs in a rail-optimized
  Clos, which scattered each container over most shards and duplicated
  its agent in each.)  This is not a speed-up: a round costs O(pairs)
  however the pairs are grouped, because each agent looks its own
  pairs up by source container (``PingList.active_pairs_from``).
* Hosts are cut into *contiguous* ranges in (segment, host) order, so
  whole segments tend to stay on one shard.  A host's access links and
  its segment's ToR uplinks are then mostly shard-local, minimizing
  the physical links whose tomography evidence is split across shards
  (harmless for correctness: the coordinator localizes every shard's
  events in one vote; a clean cut is a locality property only).

The cut itself is deterministic: groups sorted by key, then a single
pass that advances to the next shard once its balanced share
(``total / num_shards``) is reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.cluster.orchestrator import Cluster
from repro.core.pinglist import ProbePair, pair_order

__all__ = [
    "PartitionPlan",
    "TenantPlacement",
    "TopologyPartitioner",
    "place_tenants",
]


@dataclass(frozen=True)
class PartitionPlan:
    """The deterministic pair-to-shard assignment."""

    num_shards: int
    #: Per shard: its pairs, sorted.
    assignments: Tuple[Tuple[ProbePair, ...], ...]
    #: Per shard: the source-host group keys it received, sorted.
    group_keys: Tuple[Tuple[str, ...], ...]

    def pairs_of(self, shard_id: int) -> Tuple[ProbePair, ...]:
        """The pairs shard ``shard_id`` monitors."""
        return self.assignments[shard_id]

    def pair_counts(self) -> List[int]:
        """Pair count per shard."""
        return [len(pairs) for pairs in self.assignments]

    def all_pairs(self) -> List[ProbePair]:
        """Every assigned pair, sorted (the run's pair universe)."""
        merged: List[ProbePair] = []
        for pairs in self.assignments:
            merged.extend(pairs)
        return sorted(merged, key=pair_order)

    def shard_of(self, pair: ProbePair) -> int:
        """Which shard monitors ``pair``."""
        for shard_id, pairs in enumerate(self.assignments):
            if pair in pairs:
                return shard_id
        raise KeyError(f"{pair} is not assigned to any shard")


class TopologyPartitioner:
    """Splits a pair universe into shards along host/segment boundaries."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster

    def group_key(self, pair: ProbePair) -> str:
        """The pair's source host, keyed segment-major so that sorting
        group keys walks the fabric one segment at a time."""
        rnic = self.cluster.overlay.rnic_of(pair.src)
        segment = self.cluster.topology.segment_of(rnic.host)
        return f"seg-{segment:05d}/host-{rnic.host.index:06d}"

    def partition(
        self, pairs: Sequence[ProbePair], num_shards: int
    ) -> PartitionPlan:
        """Assign every pair to exactly one of ``num_shards`` shards."""
        if num_shards < 1:
            raise ValueError(f"need at least one shard, got {num_shards}")
        groups: Dict[str, List[ProbePair]] = {}
        for pair in sorted(set(pairs), key=pair_order):
            groups.setdefault(self.group_key(pair), []).append(pair)
        # One contiguous cut through the segment-major host order: each
        # host group goes to the shard whose balanced band
        # (``total / num_shards`` pairs wide) contains the group's
        # midpoint.  Midpoints are strictly increasing, so shard ids
        # never go backwards and the cut stays contiguous.
        ordered = sorted(groups.items())
        total = sum(len(members) for _, members in ordered)
        shard_pairs: List[List[ProbePair]] = [[] for _ in range(num_shards)]
        shard_keys: List[List[str]] = [[] for _ in range(num_shards)]
        assigned = 0
        for key, members in ordered:
            midpoint = 2 * assigned + len(members)  # doubled: stays int
            shard = min(
                num_shards - 1,
                midpoint * num_shards // max(2 * total, 1),
            )
            shard_pairs[shard].extend(members)
            shard_keys[shard].append(key)
            assigned += len(members)
        return PartitionPlan(
            num_shards=num_shards,
            assignments=tuple(
                tuple(sorted(pairs, key=pair_order))
                for pairs in shard_pairs
            ),
            group_keys=tuple(
                tuple(sorted(keys)) for keys in shard_keys
            ),
        )


@dataclass(frozen=True)
class TenantPlacement:
    """A deterministic tenant-to-shard assignment (fleet plane).

    Where :class:`PartitionPlan` splits one job's *pairs* across
    shards, a fleet places whole *tenants*: a tenant's pairs must stay
    on one shard so its analyzer sees the complete per-tenant probe
    stream (the isolation guarantee) and its verdicts never depend on
    a merge.  ``weights`` is each tenant's probe-pair demand, the unit
    the balancer equalizes.
    """

    num_shards: int
    #: Per shard: its tenant names, sorted.
    assignments: Tuple[Tuple[str, ...], ...]
    #: The demand weight used for every placed tenant, sorted by name.
    weights: Tuple[Tuple[str, int], ...]

    def shard_of(self, tenant: str) -> int:
        """Which shard hosts ``tenant``."""
        for shard_id, names in enumerate(self.assignments):
            if tenant in names:
                return shard_id
        raise KeyError(f"tenant {tenant!r} is not placed on any shard")

    def tenants_of(self, shard_id: int) -> Tuple[str, ...]:
        """The tenants shard ``shard_id`` monitors."""
        return self.assignments[shard_id]

    def loads(self) -> List[int]:
        """Summed tenant weight per shard."""
        weight_of = dict(self.weights)
        return [
            sum(weight_of[name] for name in names)
            for names in self.assignments
        ]

    def all_tenants(self) -> List[str]:
        """Every placed tenant, sorted."""
        return sorted(
            name for names in self.assignments for name in names
        )


def place_tenants(
    weights: Dict[str, int], num_shards: int
) -> TenantPlacement:
    """Greedy balanced placement of tenants onto shards.

    Tenants are taken heaviest-first (ties broken by name) and each
    lands on the currently least-loaded shard (ties broken by shard
    id) — the classic LPT heuristic, fully deterministic, within 4/3
    of the optimal makespan.  The makespan is what matters: the fleet
    round's critical path is the busiest shard.
    """
    if num_shards < 1:
        raise ValueError(f"need at least one shard, got {num_shards}")
    ordered = sorted(
        weights.items(), key=lambda item: (-item[1], item[0])
    )
    shard_names: List[List[str]] = [[] for _ in range(num_shards)]
    loads = [0] * num_shards
    for name, weight in ordered:
        if weight < 0:
            raise ValueError(
                f"tenant {name!r} has negative weight {weight}"
            )
        target = min(range(num_shards), key=lambda i: (loads[i], i))
        shard_names[target].append(name)
        loads[target] += weight
    return TenantPlacement(
        num_shards=num_shards,
        assignments=tuple(
            tuple(sorted(names)) for names in shard_names
        ),
        weights=tuple(sorted(weights.items())),
    )
