"""Fleet-scale multi-tenant control plane.

Runs many concurrent training jobs (tenants) over one shared fabric:
deterministic tenant lifecycles (admission, departure, container
churn), a global probes-per-round budget with per-tenant coverage
floors, per-tenant fault isolation in analysis/localization, and a
sharded execution plane whose results are bit-identical across shard
counts and coordinator failover.
"""

from repro.fleet.budget import (
    BudgetAllocation,
    FleetBudgetError,
    ProbeBudgetScheduler,
    TenantDemand,
)
from repro.fleet.controller import (
    FleetChunkResult,
    FleetController,
    RoundRollup,
    TenantRuntime,
)
from repro.fleet.lifecycle import (
    FleetLifecyclePlan,
    LifecycleEvent,
    demand_table,
    plan_lifecycle,
)
from repro.fleet.runtime import FleetReplica, build_fleet_replica
from repro.fleet.spec import (
    FleetSpec,
    TenantSpec,
    tenant_endpoints,
    tenant_pairs,
)

__all__ = [
    "BudgetAllocation",
    "FleetBudgetError",
    "FleetChunkResult",
    "FleetController",
    "FleetLifecyclePlan",
    "FleetReplica",
    "FleetSpec",
    "LifecycleEvent",
    "ProbeBudgetScheduler",
    "RoundRollup",
    "TenantDemand",
    "TenantRuntime",
    "TenantSpec",
    "build_fleet_replica",
    "demand_table",
    "plan_lifecycle",
    "tenant_endpoints",
    "tenant_pairs",
]
