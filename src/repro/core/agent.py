"""SkeletonHunter's overlay agent (§6 of the paper).

The **overlay agent** rides a sidecar container beside each training
node, sharing its network namespace.  It pulls the ping list from the
controller, registers its container so peers activate the matching
targets, and paces RDMA probes to its active targets.  Its resource
footprint is tiny and converges (Figure 17) because the skeletonized
ping list leaves each agent only a handful of targets.

The paper's per-host **underlay agent** (traceroutes and flow-table
dumps) has no object here: the localizer calls the fabric's
``traceroute`` and the :class:`~repro.core.rnic_validation.RnicValidator`
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.bus.codec import encode_probe_rows
from repro.bus.core import Topic
from repro.cluster.container import Container
from repro.core.pinglist import PingList, ProbePair
from repro.core.probing import ResilientProber, coarse_pairs, run_probe_round
from repro.core.resilience import BreakerState
from repro.network.fabric import DataPlaneFabric
from repro.network.packet import ProbeBatch

__all__ = ["AgentResourceModel", "OverlayAgent"]


@dataclass(frozen=True)
class AgentResourceModel:
    """Sidecar resource footprint over the container's lifetime.

    Startup briefly costs more (ping-list pull, registration, buffer
    warm-up) before converging to the steady state the paper reports:
    about 1% of one CPU and ~35 MB of memory (Figure 17).
    """

    steady_cpu_percent: float = 1.0
    startup_cpu_percent: float = 4.5
    cpu_decay_s: float = 90.0
    steady_memory_mb: float = 35.0
    startup_memory_mb: float = 12.0
    memory_rise_s: float = 150.0
    per_target_cpu_percent: float = 0.002

    def cpu_percent(self, age_s: float, active_targets: int = 0) -> float:
        """CPU usage ``age_s`` seconds after the agent started."""
        startup = (self.startup_cpu_percent - self.steady_cpu_percent) * (
            math.exp(-max(age_s, 0.0) / self.cpu_decay_s)
        )
        return (
            self.steady_cpu_percent
            + startup
            + self.per_target_cpu_percent * active_targets
        )

    def memory_mb(self, age_s: float) -> float:
        """Resident memory ``age_s`` seconds after the agent started."""
        rise = 1.0 - math.exp(-max(age_s, 0.0) / self.memory_rise_s)
        return (
            self.startup_memory_mb
            + (self.steady_memory_mb - self.startup_memory_mb) * rise
        )


class OverlayAgent:
    """The sidecar probing agent of one training container."""

    def __init__(
        self,
        container: Container,
        ping_list: PingList,
        started_at: float,
        version: str = "v1.0.0",
        prober: Optional[ResilientProber] = None,
        bus=None,
    ) -> None:
        self.container = container
        self.ping_list = ping_list
        self.started_at = started_at
        self.resources = AgentResourceModel()
        self.version = version  # sidecar release the agent launched with
        # Monitor-plane hardening; None probes every active pair.
        self.prober = prober
        # Telemetry bus: delivered report batches are published per
        # round so a recording carries exactly what the analyzer saw.
        self.bus = bus
        self.probes_sent = 0
        self.rounds_skipped = 0

    def my_pairs(self) -> List[ProbePair]:
        """Active pairs whose canonical source belongs to this container."""
        return self.ping_list.active_pairs_from(self.container.id)

    def register(self) -> None:
        """Announce this container so peers activate it as a target."""
        self.ping_list.register(self.container.id)

    def plan_round(self, now: float) -> Optional[List[ProbePair]]:
        """The pairs this agent probes this round: its share of the
        active pairs, or with a prober, ``None`` while the agent is
        crashed or hung and coarse coverage while it starts slowly or
        its breaker is open."""
        if self.prober is None:
            return self.my_pairs()
        state = self.prober.chaos.agent_state(str(self.container.id), now)
        if state in ("crashed", "hung"):
            self.rounds_skipped += 1
            if self.prober.recorder is not None:
                self.prober.recorder.count("agent.rounds_skipped")
            return None
        breaker = self.prober.breaker
        if state == "slow" or (
            breaker is not None and breaker.peek(now) is BreakerState.OPEN
        ):
            return coarse_pairs(self.my_pairs())
        return self.my_pairs()

    def execute_round(
        self, fabric: DataPlaneFabric, now: float, next_round: float
    ) -> ProbeBatch:
        """Probe this agent's share alone: a one-agent
        :func:`~repro.core.probing.run_probe_round`, whose batch it
        returns."""
        batches: List[ProbeBatch] = []
        run_probe_round([self], fabric, now, next_round, batches.append)
        return batches[0]

    def record_round(
        self,
        results: ProbeBatch,
        now: float,
        start: int = 0,
        stop: Optional[int] = None,
    ) -> None:
        """Account for one round's delivered reports — rows
        ``start:stop`` of ``results``, by default all — and publish
        them (the rows are cut out only for a bus to encode)."""
        stop = len(results) if stop is None else stop
        self.probes_sent += stop - start
        if self.bus is None or stop == start:
            return
        self.bus.publish(
            Topic.PROBE_REPORTS,
            sim_time=now,
            container=str(self.container.id),
            results=encode_probe_rows(results[start:stop]),
        )

    def cpu_percent(self, now: float) -> float:
        """Modelled CPU usage at simulated time ``now``."""
        return self.resources.cpu_percent(
            now - self.started_at, len(self.my_pairs())
        )

    def memory_mb(self, now: float) -> float:
        """Modelled memory usage at simulated time ``now``."""
        return self.resources.memory_mb(now - self.started_at)
