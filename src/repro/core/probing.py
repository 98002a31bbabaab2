"""Probe round execution and round-time cost accounting.

Agents probe their active targets once per round.  Two views exist:

* :func:`run_probe_round` actually sends every agent's probes through
  the simulated fabric and feeds the analyzer (the one round loop, used
  by the live system and the shard monitors) — as one
  :class:`~repro.network.packet.ProbeBatch` from the fabric to the
  analyzer, cut per agent only for a bus to record;
* :func:`estimate_round_duration` computes how long a probing round would
  take on real hardware, where each sidecar agent paces its probes
  serially while agents run in parallel — the quantity Figure 16 of the
  paper reports for full-mesh vs basic vs skeleton ping lists.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.bus.core import Topic
from repro.core.pinglist import PingList, ProbePair
from repro.core.resilience import BreakerState, CircuitBreaker, RetryPolicy
from repro.network.fabric import DataPlaneFabric
from repro.network.packet import ProbeBatch, ProbeResult

if TYPE_CHECKING:  # agent.py imports this module
    from repro.core.agent import OverlayAgent

__all__ = [
    "ProbeCostModel",
    "ResilientProber",
    "coarse_pairs",
    "estimate_round_duration",
    "probes_per_round",
    "run_probe_round",
]


@dataclass(frozen=True)
class ProbeCostModel:
    """Wall-clock cost model of agent-paced probing.

    ``per_probe_s`` is the pacing interval between consecutive probes of
    one agent (production agents rate-limit to stay invisible next to
    training traffic); ``round_overhead_s`` covers dispatch and result
    aggregation.
    """

    per_probe_s: float = 1.0
    round_overhead_s: float = 4.0


def probes_per_round(ping_list: PingList) -> int:
    """Total probes one round issues (one per pair)."""
    return len(ping_list)


def _max_targets_per_source(ping_list: PingList) -> int:
    counts: Counter = Counter()
    for pair in ping_list.pairs:
        counts[pair.src] += 1
    if not counts:
        return 0
    return max(counts.values())


def estimate_round_duration(
    ping_list: PingList, cost: Optional[ProbeCostModel] = None
) -> float:
    """Seconds to complete one probing round of the whole task.

    Agents run in parallel; each paces its own targets serially, so the
    round finishes when the busiest agent does.
    """
    cost = cost if cost is not None else ProbeCostModel()
    busiest = _max_targets_per_source(ping_list)
    if busiest == 0:
        return 0.0
    return cost.round_overhead_s + busiest * cost.per_probe_s


def coarse_pairs(pairs: Sequence[ProbePair]) -> List[ProbePair]:
    """The coarse fallback subset: one pair per container pair.

    While an agent's circuit breaker is open, probing every rail pair
    would just feed the failing monitor path; one probe per peer
    container keeps reachability coverage (a down host or crashed peer
    is still seen) at a fraction of the load.  Deterministic: input
    order is preserved and the first pair of each container pair wins,
    so the same ``pairs`` list always coarsens identically.
    """
    seen = set()
    out: List[ProbePair] = []
    for pair in pairs:
        key = (pair.src.container, pair.dst.container)
        if key in seen:
            continue
        seen.add(key)
        out.append(pair)
    return out


class ResilientProber:
    """Monitor-plane hardening around a probe round.

    Wraps the fabric's batched round with the three defenses of
    ``docs/ROBUSTNESS.md``:

    * **report fate** — each probe's *report* may be lost or late
      (:meth:`MonitorFaultInjector.probe_report`); a probe the network
      genuinely dropped is NOT retried, so real unconnectivity is never
      masked;
    * **bounded retry** — lost/late reports are retried up to
      ``retry.max_retries`` times at ``now + timeout + backoff`` with
      keyed jitter, keeping per-pair timestamps monotone and runs
      reproducible;
    * **circuit breaker** — rounds that still lose reports after
      retries count as failures; consecutive failures trip the breaker
      and the agent falls back to :func:`coarse_pairs` until half-open
      recovery.
    """

    def __init__(
        self,
        chaos,
        breaker: Optional[CircuitBreaker] = None,
        recorder=None,
        bus=None,
    ) -> None:
        self.chaos = chaos
        self.retry = RetryPolicy(seed=chaos.seed)
        self.breaker = breaker
        self.recorder = recorder
        # Telemetry bus: degraded rounds (lost/late reports, retries)
        # publish a monitor-plane record for the tail dashboard.
        self.bus = bus
        self.retries = 0
        self.retry_successes = 0
        self.reports_lost = 0
        self.reports_late = 0
        self.monitor_failures = 0

    def plan_round(
        self, pairs: Sequence[ProbePair], now: float
    ) -> Tuple[List[ProbePair], str]:
        """The pairs to probe this round, given the breaker state.

        ``CLOSED`` probes everything; ``OPEN`` probes the coarse subset;
        ``HALF_OPEN`` probes everything as the trial round (success
        closes the breaker, failure re-opens it).
        """
        pairs = list(pairs)
        if self.breaker is None:
            return pairs, "full"
        state = self.breaker.state_at(now)
        if state is BreakerState.OPEN:
            return coarse_pairs(pairs), "coarse"
        return pairs, "full" if state is BreakerState.CLOSED else "trial"

    def execute(
        self,
        fabric: DataPlaneFabric,
        pairs: Sequence[ProbePair],
        now: float,
        salt: int = 0,
    ) -> ProbeBatch:
        """One hardened round over ``pairs``; returns delivered results
        — the fabric's batch itself when every first report arrived."""
        batch = fabric.send_probe_batch(pairs, now, salt)
        retries_before = self.retries
        fates = [
            self._deliver(fabric, pair, now, salt) for pair in pairs
        ]
        failed = fates.count(None)
        if any(fate is not True for fate in fates):
            batch = ProbeBatch.of(
                batch[i] if fate is True else fate
                for i, fate in enumerate(fates) if fate is not None
            )
        if self.breaker is not None:
            if failed:
                self.breaker.record_failure(now)
            else:
                self.breaker.record_success(now)
        retried = self.retries - retries_before
        if self.bus is not None and (failed or retried):
            self.bus.publish(
                Topic.MONITOR,
                sim_time=now,
                delivered=len(batch),
                failed=failed,
                retries=retried,
            )
        return batch

    def _deliver(
        self,
        fabric: DataPlaneFabric,
        pair: ProbePair,
        now: float,
        salt: int,
    ) -> Union[bool, ProbeResult, None]:
        """Resolve one probe's report, retrying monitor-plane losses:
        ``True`` when the first report arrived, else the result of the
        retry whose report did, or ``None`` when none did."""
        at = now
        attempt = 0
        current: Union[bool, ProbeResult] = True
        while True:
            fate = self.chaos.probe_report(pair.src, pair.dst, at, attempt)
            if fate == "ok":
                if attempt > 0:
                    self.retry_successes += 1
                    self._count("probe.retry_success")
                return current
            if fate == "late":
                self.reports_late += 1
                self._count("probe.reports_late")
            else:
                self.reports_lost += 1
                self._count("probe.reports_lost")
            if attempt >= self.retry.max_retries:
                self.monitor_failures += 1
                self._count("probe.monitor_failures")
                return None
            attempt += 1
            self.retries += 1
            self._count("probe.retries")
            delay = self.retry.backoff_s(
                attempt, key=f"{pair.src}->{pair.dst}@{now!r}"
            )
            at = at + self.retry.timeout_s + delay
            current = fabric.send_probe(pair.src, pair.dst, at, salt)

    def _count(self, name: str) -> None:
        if self.recorder is not None:
            self.recorder.count(name)


def run_probe_round(
    agents: Sequence["OverlayAgent"],
    fabric: DataPlaneFabric,
    now: float,
    salt: int,
    on_batch: Callable[[ProbeBatch], None],
) -> None:
    """One probing round of ``agents``, in agent order.

    Each agent's delivered reports are accounted and published, agent
    by agent, and handed to ``on_batch`` in that order — the order the
    analyzer and a bus recording see.  With no hardened agent the round
    is *one* fabric batch: the batch answers every pair in input order
    from a row-major uniform block that is the concatenation of the
    per-agent blocks, so its slices equal one batch per agent, and the
    analyzer takes it whole.  A hardened agent's retries draw from the
    fabric stream between batches, so a round with any of them goes
    agent by agent.
    """
    if any(agent.prober is not None for agent in agents):
        for agent in agents:
            on_batch(agent.execute_round(fabric, now, salt))
        return
    shares = [agent.my_pairs() for agent in agents]
    batch = fabric.send_probe_batch(
        [pair for share in shares for pair in share], now, salt
    )
    start = 0
    for agent, share in zip(agents, shares):
        agent.record_round(batch, now, start, start + len(share))
        start += len(share)
    on_batch(batch)
