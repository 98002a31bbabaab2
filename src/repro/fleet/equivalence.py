"""The fleet plane's bit-equivalence gate.

The multi-tenant claim mirrors the shard plane's: sharding tenants
over workers — and failing a worker over mid-run — changes *who*
monitors a tenant, never what the tenant's diagnosis pipeline sees.
:func:`verify_fleet_equivalence` proves it the only convincing way:
run the same :class:`~repro.fleet.spec.FleetSpec` single-worker, at
several worker counts, and once with a mid-run worker kill, then
require every comparable surface — per-tenant events, verdicts,
blacklists, coverage, per-round rollups and probe counts — to match
exactly (:func:`repro.equivalence.compare`).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.equivalence import EquivalenceError, compare
from repro.fleet.coordinator import FleetCoordinator, FleetRunResult
from repro.fleet.spec import FleetSpec, fleet_bench_spec

__all__ = ["verify_fleet_equivalence"]


def verify_fleet_equivalence(
    spec: Optional[FleetSpec] = None,
    worker_counts: Sequence[int] = (2, 4),
    failover: bool = True,
) -> FleetRunResult:
    """Gate the fleet plane against its single-worker baseline.

    Checks, in order: every worker count in ``worker_counts`` produces
    byte-identical comparable results; and (with ``failover``) killing
    worker 0 at the start of the second chunk — forcing tenant reassignment and
    a full replay-adoption — changes nothing either.  The default spec
    is four churning tenants (staggered arrivals, one departure, a
    crash and a report-loss window) over 12 rounds.  Returns the
    baseline result for further assertions.
    """
    spec = spec or fleet_bench_spec(4, total_rounds=12)
    baseline = FleetCoordinator(spec).run()
    for count in worker_counts:
        candidate = FleetCoordinator(spec, num_workers=count).run()
        compare(
            f"{count} workers",
            baseline.comparable(), candidate.comparable(),
        )
    if failover:
        count = max(worker_counts) if worker_counts else 2
        try:
            coordinator = FleetCoordinator(
                spec, num_workers=count, kill_schedule={0: 2}
            )
        except ValueError as error:
            raise EquivalenceError(
                f"failover run can make no tenant reassignments: {error}"
            ) from error
        candidate = coordinator.run()
        if not candidate.reassignments:
            raise EquivalenceError(
                "failover run produced no tenant reassignments — the "
                "kill schedule did not exercise adoption"
            )
        compare(
            f"{count} workers + failover",
            baseline.comparable(), candidate.comparable(),
        )
    return baseline
