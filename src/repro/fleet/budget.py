"""Probes-per-round budget scheduling across fleet tenants.

One monitoring plane probes every tenant's skeleton, but the fabric
(and the analyzer behind it) tolerates only so many probes per round.
The :class:`ProbeBudgetScheduler` divides that global budget:

* every *admitted* tenant is guaranteed its **coverage floor** — at
  least ``ceil(coverage_floor x demand)`` of its probe pairs (and never
  fewer than one) each round it is present;
* admission control enforces the invariant that floors always fit: a
  tenant whose floor cannot be funded alongside the already-admitted
  tenants' floors is rejected *at arrival*, not starved later;
* budget left over after floors is split by tenant weight
  (water-filling, capped at each tenant's full demand) with a
  largest-remainder tie-break, so the allocation is a pure function of
  the tenant table — no RNG, no iteration-order dependence;
* within a tenant, :meth:`ProbeBudgetScheduler.select_pairs` rotates a
  window over the (sorted) pair universe by round index, so a tenant
  granted ``q`` of ``n`` pairs sweeps all ``n`` every ``ceil(n/q)``
  rounds.  Combined with the floor >= 1 guarantee this makes the
  schedule starvation-free by construction: every pair of every
  admitted tenant is probed infinitely often.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.pinglist import ProbePair

__all__ = [
    "BudgetAllocation",
    "FleetBudgetError",
    "ProbeBudgetScheduler",
    "TenantDemand",
]


class FleetBudgetError(ValueError):
    """A budget invariant would be violated (floors exceed budget)."""


@dataclass(frozen=True)
class TenantDemand:
    """One admitted tenant's claim on the round budget."""

    name: str
    #: Size of the tenant's probe-pair universe this round.
    demand: int
    #: Fraction of ``demand`` the tenant is guaranteed.
    coverage_floor: float
    #: Bias for distributing budget beyond the floors.
    weight: float = 1.0

    @property
    def floor(self) -> int:
        """The guaranteed per-round pair count (>= 1 when demand > 0)."""
        if self.demand <= 0:
            return 0
        return min(
            self.demand,
            max(1, math.ceil(self.coverage_floor * self.demand)),
        )


@dataclass(frozen=True)
class BudgetAllocation:
    """The deterministic per-round split of the probe budget."""

    round_index: int
    budget: int
    #: Per tenant (sorted by name): ``(name, demand, floor, quota)``.
    grants: Tuple[Tuple[str, int, int, int], ...]

    def quota_of(self, name: str) -> int:
        """Pairs granted to ``name`` this round."""
        for grant_name, _, _, quota in self.grants:
            if grant_name == name:
                return quota
        raise KeyError(f"tenant {name!r} has no grant this round")

    @property
    def total_granted(self) -> int:
        """Sum of all quotas (never exceeds ``budget``)."""
        return sum(quota for _, _, _, quota in self.grants)


class ProbeBudgetScheduler:
    """Fair-share probe budgeting with per-tenant coverage floors."""

    def __init__(self, budget_per_round: int) -> None:
        if budget_per_round < 1:
            raise ValueError(
                f"budget must be positive, got {budget_per_round}"
            )
        self.budget_per_round = budget_per_round

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------

    def fits(self, demands: Sequence[TenantDemand]) -> bool:
        """Whether every tenant's floor can be funded simultaneously.

        This is the admission predicate: the controller calls it with
        the already-admitted tenants plus the arrival, and rejects the
        arrival if the combined floors overflow the budget.  Because
        floors are static per tenant, a tenant admitted once can always
        be funded — later arrivals can only be rejected, never evict.
        """
        return sum(d.floor for d in demands) <= self.budget_per_round

    # ------------------------------------------------------------------
    # Per-round allocation
    # ------------------------------------------------------------------

    def allocate(
        self, round_index: int, demands: Sequence[TenantDemand]
    ) -> BudgetAllocation:
        """Split the round budget over the admitted tenants.

        Floors first, then weighted water-filling of the remainder
        capped at each tenant's demand, then a largest-remainder pass
        for the final few pairs.  Raises :class:`FleetBudgetError` if
        the floors alone overflow — callers must admission-control with
        :meth:`fits` before letting a tenant in.
        """
        ordered = sorted(demands, key=lambda d: d.name)
        names = [d.name for d in ordered]
        if len(names) != len(set(names)):
            raise ValueError("duplicate tenant names in demand table")
        floors = {d.name: d.floor for d in ordered}
        if sum(floors.values()) > self.budget_per_round:
            raise FleetBudgetError(
                f"round {round_index}: coverage floors need "
                f"{sum(floors.values())} probes but the budget is "
                f"{self.budget_per_round}; admission control should "
                f"have rejected the last arrival"
            )
        grants: Dict[str, int] = dict(floors)
        by_name = {d.name: d for d in ordered}
        remaining = self.budget_per_round - sum(grants.values())
        while remaining > 0:
            active = [
                name for name in names
                if grants[name] < by_name[name].demand
            ]
            if not active:
                break
            total_weight = sum(by_name[n].weight for n in active)
            shares = {
                n: remaining * by_name[n].weight / total_weight
                for n in active
            }
            gave = 0
            for n in active:
                extra = min(
                    int(shares[n]), by_name[n].demand - grants[n]
                )
                grants[n] += extra
                gave += extra
            if gave == 0:
                # Largest-remainder pass: everyone's integer share was
                # zero, so hand out the last pairs one at a time to the
                # largest fractional shares (name-ordered on ties).
                for n in sorted(
                    active,
                    key=lambda n: (-(shares[n] % 1.0), n),
                ):
                    if gave >= remaining:
                        break
                    if grants[n] < by_name[n].demand:
                        grants[n] += 1
                        gave += 1
                if gave == 0:
                    break
            remaining -= gave
        return BudgetAllocation(
            round_index=round_index,
            budget=self.budget_per_round,
            grants=tuple(
                (
                    d.name,
                    d.demand,
                    floors[d.name],
                    grants[d.name],
                )
                for d in ordered
            ),
        )

    # ------------------------------------------------------------------
    # Within-tenant pair selection
    # ------------------------------------------------------------------

    @staticmethod
    def select_pairs(
        pairs: Sequence[ProbePair], quota: int, round_index: int
    ) -> List[ProbePair]:
        """The tenant's probe pairs for this round, sorted.

        ``pairs`` is the tenant's pair universe **already sorted** (as
        :func:`~repro.fleet.spec.tenant_pairs` builds it, once per
        tenant runtime).  A rotating window of width ``quota`` over it,
        advanced by ``quota`` each round (with wraparound).
        A tenant granted ``q`` of its ``n`` pairs therefore covers all
        ``n`` every ``ceil(n / q)`` rounds; with the floor >= 1
        guarantee no pair ever starves.  Pure in ``(pairs, quota,
        round_index)``: every shard computes the identical selection.
        """
        if round_index < 1:
            raise ValueError(f"rounds are 1-based, got {round_index}")
        n = len(pairs)
        if quota >= n or n == 0:
            return list(pairs)
        if quota <= 0:
            return []
        start = ((round_index - 1) * quota) % n
        end = start + quota
        if end <= n:
            return list(pairs[start:end])
        # Wrapped: the head of the universe sorts before its tail.
        return list(pairs[:end - n]) + list(pairs[start:])
