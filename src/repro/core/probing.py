"""Probe round execution and round-time cost accounting.

Agents probe their active targets once per round.  Two views exist:

* :func:`run_probe_round` actually sends a round's probes through the
  simulated fabric (the one way a round is sent: by the live system's
  agents, each shard monitor's agents and each fleet worker's tenants)
  — as one :class:`~repro.network.packet.ProbeBatch` from the fabric to
  the analyzer, hardened owners included, cut per owner only for a bus
  to record or a tenant to count;
* :func:`estimate_round_duration` computes how long a probing round would
  take on real hardware, where each sidecar agent paces its probes
  serially while agents run in parallel — the quantity Figure 16 of the
  paper reports for full-mesh vs basic vs skeleton ping lists.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

import numpy as np

from repro.bus.codec import ReportRows
from repro.bus.core import Topic
from repro.chaos.faults import REPORT_LATE, REPORT_LOST, REPORT_OK
from repro.core.pinglist import PingList, ProbePair
from repro.core.resilience import (
    MAX_RETRIES, RETRY_TIMEOUT_S, CircuitBreaker, backoff_s,
)
from repro.network.draws import BACKOFF_COLUMN
from repro.network.fabric import DataPlaneFabric
from repro.network.packet import ProbeBatch

__all__ = [
    "ProbeCostModel",
    "ResilientProber",
    "coarse_pairs",
    "estimate_round_duration",
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

    One agent's side of the defenses of ``docs/ROBUSTNESS.md``, which
    :func:`run_probe_round` applies to a round's rows as columns: a *report*
    lost or late by the monitor (never a probe the network dropped) is
    retried with keyed backoff while the retry lands before the pair's
    next round; a round that still loses reports is a failure, and
    consecutive failures trip the breaker, which falls the agent back
    to :func:`coarse_pairs` until half-open recovery.
    """

    def __init__(
        self,
        chaos,
        breaker: Optional[CircuitBreaker] = None,
        recorder=None,
        bus=None,
    ) -> None:
        self.chaos = chaos
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

    def tally(self, counts: Sequence[int]) -> None:
        """Add one round's report counts, in :data:`_TALLIES` order, to
        this prober's counters and the recorder's ``probe.<name>``."""
        for name, amount in zip(_TALLIES, counts):
            if amount:
                setattr(self, name, getattr(self, name) + int(amount))
                if self.recorder is not None:
                    self.recorder.count(f"probe.{name}", float(amount))

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


#: A prober's report counters.
_TALLIES = ("reports_lost", "reports_late", "retries", "retry_successes",
            "monitor_failures")
_LOST, _LATE, _RETRIES, _SUCCESSES, _FAILURES = range(len(_TALLIES))


def run_probe_round(
    owners: Sequence[Any],
    fabric: DataPlaneFabric,
    now: float,
    next_round: float,
) -> ProbeBatch:
    """One probing round of ``owners`` at ``now``, the next at
    ``next_round``: one fabric batch whatever its owners, plus one per
    retry attempt when a hardened owner's reports go missing — the only
    way a round is sent.  Returns the delivered rows, in owner order.

    An owner — an :class:`~repro.core.agent.OverlayAgent`, or a fleet
    tenant — has ``plan_round(now)``, its share (``None``: none; a
    hardened agent may skip the round or probe coarsely), a ``prober``
    (``None``: unhardened) and ``record_round(batch, now, start, stop,
    rows)``, which takes its delivered rows ``batch[start:stop]`` —
    and, to publish them, ``rows[start:stop]``: every owner slices the
    one :class:`~repro.bus.codec.ReportRows` of the round, encoded the
    first time one asks.

    The rows of the owners with a prober (all with one monitor-fault
    injector) draw their report fates as one keyed column per attempt
    (:meth:`MonitorFaultInjector.report_fates`); the missing ones are
    retried as one batch per attempt, each at its send time + timeout +
    keyed backoff if that lands before ``next_round`` (else a monitor
    failure).  The delivered rows are selected from the first batch and
    the retry waves, each the send its report arrived with.  Draws are
    keyed by the probe, so no row depends on what else a batch held.
    Then, in owner order — the order a bus recording sees — each owner
    settles its prober and records its delivered rows.
    """
    shares = [owner.plan_round(now) for owner in owners]
    pairs = [pair for share in shares if share for pair in share]
    batch = fabric.send_probe_batch(pairs, now)
    tally = np.zeros((len(_TALLIES), len(owners)), dtype=np.int64)
    hardened = [
        i for i, owner in enumerate(owners) if owner.prober is not None
    ]
    if hardened:
        chaos = owners[hardened[0]].prober.chaos
        owner_of = np.repeat(
            np.arange(len(owners)), [len(share or ()) for share in shares]
        )

        def count(kind: int, rows: np.ndarray) -> None:
            tally[kind] += np.bincount(
                owner_of[rows], minlength=len(owners)
            )

        rows = np.flatnonzero(np.isin(owner_of, hardened))
        wave = ProbeBatch.take([batch], rows)
        waves = [batch]
        # Each row's answer, as a row of the waves laid end to end.
        answer = np.arange(len(pairs))
        arrived = np.ones(len(pairs), dtype=bool)
        for attempt in range(MAX_RETRIES + 1):
            fates = chaos.report_fates(wave, attempt)
            count(_LOST, rows[fates == REPORT_LOST])
            count(_LATE, rows[fates == REPORT_LATE])
            missed = np.flatnonzero(fates != REPORT_OK)
            if attempt == MAX_RETRIES or not missed.size:
                arrived[rows[missed]] = False
                break
            sent_at = wave.sent_at[missed]
            u = chaos.draws.column(
                wave.keys[missed], sent_at, BACKOFF_COLUMN, attempt + 1
            )
            at = sent_at + RETRY_TIMEOUT_S + backoff_s(attempt + 1, u)
            in_time = at < next_round
            arrived[rows[missed[~in_time]]] = False
            rows, at = rows[missed[in_time]], at[in_time]
            if not rows.size:
                break
            wave = fabric.send_probe_batch(
                list(map(pairs.__getitem__, rows.tolist())), at
            )
            count(_RETRIES, rows)
            answer[rows] = sum(map(len, waves)) + np.arange(rows.size)
            waves.append(wave)
        count(_SUCCESSES, np.flatnonzero(arrived & (answer >= len(pairs))))
        count(_FAILURES, np.flatnonzero(~arrived))
        for i in hardened:
            owners[i].prober.tally(tally[:, i])
        if len(waves) > 1 or not arrived.all():
            batch = ProbeBatch.take(waves, answer[arrived])
    rows = ReportRows(batch)
    start = 0
    for owner, share, failed, retried in zip(
        owners, shares, tally[_FAILURES].tolist(), tally[_RETRIES].tolist()
    ):
        delivered = len(share or ()) - failed
        if owner.prober is not None:
            owner.prober.settle(
                now, delivered, failed, retried, probed=share is not None
            )
        owner.record_round(batch, now, start, start + delivered, rows)
        start += delivered
    return batch
