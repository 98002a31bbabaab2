"""Probe round execution and round-time cost accounting.

Agents probe their active targets once per round.  Two views exist:

* :func:`run_probe_round` actually sends every agent's probes through
  the simulated fabric and feeds the analyzer (the one round loop, used
  by the live system and the shard monitors) — as one
  :class:`~repro.network.packet.ProbeBatch` from the fabric to the
  analyzer, hardened agents included, cut per agent only for a bus to
  record;
* :func:`estimate_round_duration` computes how long a probing round would
  take on real hardware, where each sidecar agent paces its probes
  serially while agents run in parallel — the quantity Figure 16 of the
  paper reports for full-mesh vs basic vs skeleton ping lists.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple,
)

import numpy as np

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
    "send_round",
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
    ) -> List[ProbePair]:
        """The pairs to probe this round, given the breaker state.

        ``CLOSED`` probes everything; ``OPEN`` probes the coarse subset;
        ``HALF_OPEN`` probes everything as the trial round (success
        closes the breaker, failure re-opens it).
        """
        if self.breaker is not None and (
            self.breaker.peek(now) is BreakerState.OPEN
        ):
            return coarse_pairs(pairs)
        return list(pairs)

    def report_fate(
        self, pair: ProbePair, now: float
    ) -> Tuple[List[float], bool]:
        """One probe's report fate, retries included: the send times of
        the retries it takes, and whether a report arrived at last.  A
        fate is a keyed draw over the probe and its attempt, never a
        function of the probe's result, so it is known before any retry
        is sent."""
        at = now
        retries: List[float] = []
        while True:
            fate = self.chaos.probe_report(
                pair.src, pair.dst, at, len(retries)
            )
            if fate == "ok":
                if retries:
                    self.retry_successes += 1
                    self._count("probe.retry_success")
                return retries, True
            if fate == "late":
                self.reports_late += 1
                self._count("probe.reports_late")
            else:
                self.reports_lost += 1
                self._count("probe.reports_lost")
            if len(retries) >= self.retry.max_retries:
                self.monitor_failures += 1
                self._count("probe.monitor_failures")
                return retries, False
            self.retries += 1
            self._count("probe.retries")
            delay = self.retry.backoff_s(
                len(retries) + 1, key=f"{pair.src}->{pair.dst}@{now!r}"
            )
            at = at + self.retry.timeout_s + delay
            retries.append(at)

    def settle(
        self, now: float, delivered: int, failed: int, retried: int,
        probed: bool = True,
    ) -> None:
        """Close one round: feed the breaker (a round that probed
        nothing — a crashed or hung agent — is a failure) and publish
        a degraded round."""
        if self.breaker is not None:
            if failed or not probed:
                self.breaker.record_failure(now)
            else:
                self.breaker.record_success(now)
        if self.bus is not None and (failed or retried):
            self.bus.publish(
                Topic.MONITOR, sim_time=now, delivered=delivered,
                failed=failed, retries=retried,
            )

    def _count(self, name: str) -> None:
        if self.recorder is not None:
            self.recorder.count(name)


def send_round(
    fabric: DataPlaneFabric,
    shares: Sequence[Optional[Sequence[ProbePair]]],
    probers: Sequence[Optional[ResilientProber]],
    now: float,
) -> Tuple[ProbeBatch, List[Tuple[int, int]]]:
    """Send every share's pairs (``None``: none) as one fabric batch and
    deliver their reports: the delivered rows in share order, and each
    share's ``(failed, retried)`` report counts.

    A share with a prober resolves its report fates on its slice
    (:meth:`ResilientProber.report_fate`); the retries then go out as
    one batch per attempt over the rows still retrying, each at its own
    send time, and a row whose report arrived on a retry is that
    retry's result.  Probe draws are keyed by the probe, so no row
    depends on what else a batch held.
    """
    pairs = [pair for share in shares if share for pair in share]
    batch = fabric.send_probe_batch(pairs, now)
    counts = [(0, 0)] * len(shares)
    hardened = [i for i, prober in enumerate(probers) if prober is not None]
    if not hardened:
        return batch, counts
    starts = list(accumulate(
        (len(share or ()) for share in shares), initial=0
    ))
    arrived = np.ones(len(pairs), dtype=bool)
    retrying: List[Tuple[int, List[float]]] = []
    for i in hardened:
        fates = [
            probers[i].report_fate(pair, now) for pair in shares[i] or ()
        ]
        counts[i] = (
            sum(not ok for _, ok in fates), sum(len(t) for t, _ in fates)
        )
        for row, (times, ok) in enumerate(fates, starts[i]):
            arrived[row] = ok
            if times:
                retrying.append((row, times))
    # Wave k sends every row's (k + 1)-th retry at its send time, which
    # already carries the keyed backoff.
    answered: Dict[int, ProbeResult] = {}
    for k in range(max((len(t) for _, t in retrying), default=0)):
        wave = [(row, t) for row, t in retrying if len(t) > k]
        sent = fabric.send_probe_batch(
            [pairs[row] for row, _ in wave],
            np.array([t[k] for _, t in wave]),
        )
        answered.update(
            (row, result) for result, (row, t) in zip(sent, wave)
            if len(t) == k + 1
        )
    if answered or not arrived.all():
        batch = ProbeBatch.of(
            answered.get(row) or batch[row]
            for row in np.flatnonzero(arrived).tolist()
        )
    return batch, counts


def run_probe_round(
    agents: Sequence["OverlayAgent"],
    fabric: DataPlaneFabric,
    now: float,
    on_batch: Callable[[ProbeBatch], None],
) -> None:
    """One probing round of ``agents``: one fabric batch whatever its
    agents (:func:`send_round`), plus one per retry attempt when a
    hardened agent's reports go missing.

    Each agent plans its share (a hardened agent may skip the round or
    probe coarsely), then — in agent order, the order a bus recording
    sees — settles its prober and accounts and publishes its delivered
    rows; the analyzer takes the round's batch whole.
    """
    shares = [agent.plan_round(now) for agent in agents]
    batch, counts = send_round(
        fabric, shares, [agent.prober for agent in agents], now
    )
    start = 0
    for agent, share, (failed, retried) in zip(agents, shares, counts):
        delivered = len(share or ()) - failed
        if agent.prober is not None:
            agent.prober.settle(
                now, delivered, failed, retried, probed=share is not None
            )
        agent.record_round(batch, now, start, start + delivered)
        start += delivered
    on_batch(batch)
