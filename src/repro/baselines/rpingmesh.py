"""R-Pingmesh-style service-aware probing (Liu et al., SIGCOMM 2024).

R-Pingmesh scopes probing to a service's own endpoints (like Pingmesh)
but dedups at ToR granularity: for each ordered ToR pair the service can
communicate across, it keeps a bounded number of representative endpoint
pairs instead of the full mesh.  It is service-aware but still *traffic*
-unaware: it cannot tell which ToR pairs the training workload actually
exercises, so it probes them all.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cluster.container import TrainingTask
from repro.cluster.identifiers import SwitchId
from repro.cluster.orchestrator import Cluster
from repro.core.pinglist import PingList, PingListPhase, ProbePair
from repro.core.probing import ProbeCostModel, estimate_round_duration
from repro.network.fabric import DataPlaneFabric
from repro.network.packet import ProbeResult

__all__ = ["RPingmeshBaseline"]


class RPingmeshBaseline:
    """Per-ToR-pair representative probing within one task."""

    name = "rpingmesh"

    def __init__(
        self,
        cluster: Cluster,
        task: TrainingTask,
        pairs_per_tor_pair: int = 4,
        cost: Optional[ProbeCostModel] = None,
    ) -> None:
        if pairs_per_tor_pair < 1:
            raise ValueError("need at least one pair per ToR pair")
        self.cluster = cluster
        self.task = task
        self.pairs_per_tor_pair = pairs_per_tor_pair
        # Per-instance default (lint rule "shared-instance-default").
        self.cost = cost if cost is not None else ProbeCostModel()
        self.ping_list = self._plan()

    def _tor_of(self, endpoint) -> SwitchId:
        container = self.task.containers[endpoint.container]
        rnic = container.vf_of(endpoint).rnic
        return self.cluster.topology.tor_of(rnic)

    def _plan(self) -> PingList:
        endpoints = self.task.endpoints()
        buckets: Dict[Tuple[SwitchId, SwitchId], List[ProbePair]] = {}
        for i, a in enumerate(endpoints):
            for b in endpoints[i + 1:]:
                if a.container == b.container:
                    continue
                key = tuple(sorted((self._tor_of(a), self._tor_of(b))))
                bucket = buckets.setdefault(key, [])
                if len(bucket) < self.pairs_per_tor_pair:
                    bucket.append(ProbePair(a, b))
        pairs = {pair for bucket in buckets.values() for pair in bucket}
        ping_list = PingList(pairs=pairs, phase=PingListPhase.BASIC)
        for container in self.task.all_containers():
            ping_list.register(container.id)
        return ping_list

    def probe_count(self) -> int:
        """Probes per round under the ToR-pair plan."""
        return len(self.ping_list)

    def execute_round(
        self, fabric: DataPlaneFabric, now: float
    ) -> List[ProbeResult]:
        """Probe every active representative pair in one batch."""
        return fabric.send_probe_batch(self.ping_list.active_pairs(), now)

    def round_duration_s(self) -> float:
        """Estimated wall-clock time of one probing round."""
        return estimate_round_duration(self.ping_list, self.cost)
