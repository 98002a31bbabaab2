"""The sharded monitoring control plane (scale-out of §6).

Splits the probe-pair universe into topology-aware shards, runs each
shard's probe rounds and detection independently (in-process or in
forked worker processes), and recombines per-shard evidence — merged
tomography votes, global localization, failover of dead shards — in a
coordinator.  For a fixed run seed, the plane's opened events and
localization verdicts are bit-identical across shard counts and
backends; :mod:`repro.shard.equivalence` enforces exactly that.
"""

from repro.shard.backend import (
    InProcessBackend,
    MultiprocessingBackend,
    ShardDeadError,
    backend_named,
)
from repro.shard.coordinator import (
    MergedVoteTable,
    ShardCoordinator,
    ShardRunResult,
    ShardStatus,
)
from repro.shard.equivalence import (
    default_equivalence_spec,
    run_plane,
    verify_shard_equivalence,
)
from repro.shard.monitor import ChunkResult, EventRecord, ShardMonitor
from repro.shard.partition import (
    PartitionPlan,
    TenantPlacement,
    TopologyPartitioner,
    place_tenants,
)
from repro.shard.plane import (
    PlaneDriver,
    PlaneError,
    Reassignment,
    WorkerStatus,
)
from repro.shard.spec import (
    FaultScheduleRunner,
    FaultSpec,
    ShardScenarioSpec,
    build_replica,
    pair_universe,
)

__all__ = [
    "ChunkResult",
    "EventRecord",
    "FaultScheduleRunner",
    "FaultSpec",
    "InProcessBackend",
    "MergedVoteTable",
    "MultiprocessingBackend",
    "PartitionPlan",
    "PlaneDriver",
    "PlaneError",
    "Reassignment",
    "ShardCoordinator",
    "ShardDeadError",
    "ShardMonitor",
    "ShardRunResult",
    "ShardScenarioSpec",
    "ShardStatus",
    "TenantPlacement",
    "TopologyPartitioner",
    "WorkerStatus",
    "backend_named",
    "build_replica",
    "default_equivalence_spec",
    "pair_universe",
    "place_tenants",
    "run_plane",
    "verify_shard_equivalence",
]
