"""Full-mesh Pingmesh baseline (Guo et al., SIGCOMM 2015).

Pingmesh probes every endpoint pair of a task, with the ping list managed
centrally by the controller.  It is the paper's comparison point in
Figures 15 and 16: correct but an order of magnitude more probes and a
round time that grows linearly in the task's endpoint count.  Two
characteristic weaknesses are modelled:

* **No rail/skeleton awareness** — the list includes every cross-rail
  pair even though training traffic never uses those paths.
* **Controller-driven activation** — the central controller refreshes
  activation on a fixed period, so containers that started *between*
  refreshes are probed before they are ready, producing startup false
  positives (the problem SkeletonHunter's data-plane registration kills).
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.container import TrainingTask
from repro.core.pinglist import PingList, ProbePair
from repro.core.probing import ProbeCostModel, estimate_round_duration
from repro.network.fabric import DataPlaneFabric
from repro.network.packet import ProbeResult

__all__ = ["PingmeshBaseline"]


class PingmeshBaseline:
    """Task-scoped full-mesh probing with periodic central activation."""

    name = "pingmesh"

    def __init__(
        self,
        task: TrainingTask,
        activation_refresh_s: float = 60.0,
        cost: Optional[ProbeCostModel] = None,
    ) -> None:
        self.task = task
        # Per-instance default (lint rule "shared-instance-default").
        self.cost = cost if cost is not None else ProbeCostModel()
        self.activation_refresh_s = activation_refresh_s
        self.ping_list = PingList.full_mesh(task.endpoints())
        self._last_refresh: Optional[float] = None

    # ------------------------------------------------------------------
    # Plan-level queries (Figures 15/16)
    # ------------------------------------------------------------------

    def probe_count(self) -> int:
        """Probes per round over the full mesh."""
        return len(self.ping_list)

    def round_duration_s(self) -> float:
        """Estimated wall-clock time of one full probing round."""
        return estimate_round_duration(self.ping_list, self.cost)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def refresh_activation(self, now: float) -> int:
        """Centrally re-sync activation with current container states.

        Returns how many containers became active in this refresh.
        Between refreshes, newly created containers are *assumed* active
        (the stale-view flaw): they get probed before their network
        stack is up.
        """
        self._last_refresh = now
        activated = 0
        for container in self.task.all_containers():
            if container.is_running:
                self.ping_list.register(container.id)
                activated += 1
            elif container.created_at is not None:
                # Stale central view: creation is visible, readiness not.
                self.ping_list.register(container.id)
                activated += 1
        return activated

    def execute_round(
        self, fabric: DataPlaneFabric, now: float
    ) -> List[ProbeResult]:
        """Probe every pair the (possibly stale) central view activated."""
        if (
            self._last_refresh is None
            or now - self._last_refresh >= self.activation_refresh_s
        ):
            self.refresh_activation(now)
        return fabric.send_probe_batch(self.ping_list.active_pairs(), now)

    def startup_false_probes(self, now: float) -> List[ProbePair]:
        """Pairs currently activated whose endpoints are not RUNNING."""
        bad: List[ProbePair] = []
        for pair in self.ping_list.active_pairs():
            for endpoint in (pair.src, pair.dst):
                container = self.task.containers.get(endpoint.container)
                if container is None or not container.is_running:
                    bad.append(pair)
                    break
        return bad
