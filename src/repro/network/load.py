"""Per-link offered load derived from the workload's traffic matrix.

The gray-failure families (SHIFT §4) are *load-dependent*: a congestion
collapse only exists because training traffic over-subscribes a link,
and its severity scales with how hot the link runs.  This module turns
the workload's rank-level traffic matrix (the paper's Figure 9) into a
per-link utilization estimate by routing every communicating rank pair
over its ECMP path set with equal splitting — exactly the load an ECMP
fabric would carry in expectation, whether flows are pinned (static
hashing averages out over many pairs) or sprayed per packet.

Utilizations are normalized to the hottest link (1.0 = the busiest link
in the fabric), which is the shape the collapse curves below consume.
Everything here is a pure function of (workload, cluster), so two
replicas built from the same spec derive bit-identical load — the
keyed-draw determinism contract extends to load-coupled fault severity.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.cluster.identifiers import LinkId, implicated_host
from repro.cluster.topology import UnderlayPath

__all__ = [
    "LinkLoadModel",
    "collapse_latency_us",
    "collapse_loss_rate",
]


def collapse_loss_rate(utilization: float) -> float:
    """Drop rate of a collapsed link carrying ``utilization`` load.

    Quadratic in load (queue overflow grows superlinearly as offered
    load approaches capacity), floored so even a cool link collapses
    noticeably and capped below full blackout — collapse is gray, not
    binary.
    """
    u = min(max(utilization, 0.0), 1.0)
    return min(0.45, 0.04 + 0.38 * u * u)


def collapse_latency_us(utilization: float) -> float:
    """Extra RTT (µs) of a collapsed link carrying ``utilization`` load.

    An M/M/1-flavoured blow-up tamed to a power curve: queueing delay
    grows steeply but stays finite (retransmissions bound sojourn time).
    """
    u = min(max(utilization, 0.0), 1.0)
    return 40.0 + 260.0 * u ** 1.5


class LinkLoadModel:
    """Expected per-link load of a workload's collective traffic.

    ``loads`` maps each link to the number of unit flows crossing it in
    expectation (a rank pair contributes ``1/len(ecmp_paths)`` to every
    link of every path it may use).  :meth:`utilization` rescales to the
    hottest link.
    """

    def __init__(self, loads: Dict[LinkId, float]) -> None:
        self._loads = dict(loads)
        self._max = max(self._loads.values()) if self._loads else 0.0
        # Per-stratum peaks: access (RNIC-attached) links concentrate a
        # rank's entire traffic, so they dominate the global max and
        # would make every fabric link look cool by comparison.
        access = [
            load for link, load in self._loads.items()
            if implicated_host(link) is not None
        ]
        fabric = [
            load for link, load in self._loads.items()
            if implicated_host(link) is None
        ]
        self._class_max = {
            True: max(access) if access else 0.0,
            False: max(fabric) if fabric else 0.0,
        }

    @classmethod
    def from_workload(cls, workload, cluster) -> "LinkLoadModel":
        """Route the workload's traffic matrix over the cluster fabric."""
        # Local import: collectives imports nothing from repro.network,
        # but keeping the dependency one-way at module load avoids any
        # chance of a cycle as the training package grows.
        from repro.training.collectives import traffic_matrix

        topology = cluster.topology
        overlay = cluster.overlay
        matrix = traffic_matrix(workload)
        n = workload.num_ranks
        loads: Dict[LinkId, float] = {}
        for a in range(n):
            for b in range(a + 1, n):
                if not matrix[a, b]:
                    continue
                src = overlay.rnic_of(workload.endpoint_of(a))
                dst = overlay.rnic_of(workload.endpoint_of(b))
                if src == dst:
                    continue
                paths = topology.ecmp_paths(src, dst)
                if not paths:
                    continue
                share = 1.0 / len(paths)
                for path in paths:
                    for link in path.links:
                        loads[link] = loads.get(link, 0.0) + share
        return cls(loads)

    def load(self, link: LinkId) -> float:
        """Raw expected unit-flow count crossing ``link``."""
        return self._loads.get(link, 0.0)

    def utilization(self, link: LinkId) -> float:
        """Load of ``link`` relative to the fabric's hottest link."""
        if self._max <= 0.0:
            return 0.0
        return self._loads.get(link, 0.0) / self._max

    def class_utilization(self, link: LinkId) -> float:
        """Load of ``link`` relative to the hottest link of its stratum.

        Access links and switch-to-switch fabric links form separate
        capacity classes: ECMP spreads fabric load over many uplinks,
        so a congested uplink is hot *relative to the fabric layer's
        peak* even while some access link carries more absolute flow.
        Congestion-collapse severity couples to this measure.
        """
        peak = self._class_max[implicated_host(link) is not None]
        if peak <= 0.0:
            return 0.0
        return self._loads.get(link, 0.0) / peak

    def path_utilization(self, path: UnderlayPath) -> float:
        """The bottleneck (max) utilization along one path."""
        if not path.links:
            return 0.0
        return max(self.utilization(link) for link in path.links)

    def distribution_utilization(
        self, paths: Iterable[UnderlayPath]
    ) -> float:
        """Expected bottleneck utilization over a path distribution."""
        utils = [self.path_utilization(p) for p in paths]
        if not utils:
            return 0.0
        return sum(utils) / len(utils)

    def hottest_link(self) -> Optional[LinkId]:
        """The busiest link (ties broken by link order), if any load."""
        if not self._loads:
            return None
        return min(
            (link for link, load in self._loads.items()
             if load == self._max),
        )

    def hot_links(self, threshold: float = 0.7) -> list:
        """Links at or above ``threshold`` utilization, sorted."""
        return sorted(
            link for link in self._loads
            if self.utilization(link) >= threshold
        )
