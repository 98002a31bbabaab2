"""Retry, backoff, and circuit-breaker policy for the monitor plane.

The monitoring pipeline itself can fail — probe reports get lost or
arrive late, agents crash or hang, flow-table reads error out (see
:mod:`repro.chaos.faults` for the injectable catalogue).  This module
holds the *production* half of that story: the policies the probing and
validation paths use to absorb monitor-plane faults without masking
genuine network failures.

Two rules keep the hardening honest:

* **Retries are for the monitor, not the network.**  A probe whose
  *report* was lost by the monitoring plane is retried; a probe the
  network genuinely dropped is not — retrying it would hide the very
  unconnectivity the detectors exist to find.
* **All jitter is keyed.**  Backoff jitter comes from
  :func:`repro.network.draws.keyed_uniform`, a pure function of
  ``(seed, key, attempt)`` — so retry timing is reproducible in any
  process and the sharded plane's bit-equivalence gate keeps holding.

The :class:`CircuitBreaker` follows the classic three-state machine:

``CLOSED``
    normal operation; consecutive failures are counted.
``OPEN``
    tripped after ``failure_threshold`` consecutive failures; the agent
    falls back to coarse ping-list coverage until ``open_duration_s``
    of simulated time has passed.
``HALF_OPEN``
    after the open window, one trial round is allowed through; success
    closes the breaker (recovery), failure re-opens it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.network.draws import keyed_uniform

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "RetryPolicy",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with deterministic exponential backoff.

    Delays are small relative to the 2 s probe interval so a retried
    probe's timestamp (``now + delay``) still lands before the next
    round — per-pair time series stay monotone.
    """

    #: Simulated seconds before an outstanding probe reply counts as a
    #: monitor-plane timeout (a *late* reply, retried like a lost one).
    timeout_s: float = 0.5
    #: Retries after the initial attempt; 0 disables retrying.
    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 0.4
    #: Fraction of the deterministic delay replaced by keyed jitter.
    jitter: float = 0.5
    #: Seed for the keyed jitter draws (usually the scenario seed).
    seed: int = 0

    def backoff_s(self, attempt: int, key: str) -> float:
        """Delay before retry ``attempt`` (1-based) of ``key``.

        ``key`` must identify the probe uniquely (pair + time), so the
        jitter is a pure function of the probe, never of call order.
        """
        if attempt < 1:
            raise ValueError(f"attempts are 1-based, got {attempt}")
        base = self.backoff_base_s * self.backoff_factor ** (attempt - 1)
        base = min(base, self.backoff_max_s)
        if self.jitter <= 0.0:
            return base
        u = keyed_uniform(self.seed, f"backoff:{key}", salt=attempt)
        return base * (1.0 - self.jitter + self.jitter * u)

    def total_delay_bound_s(self) -> float:
        """Upper bound on cumulative retry delay (for schedule checks)."""
        return sum(
            min(
                self.backoff_base_s * self.backoff_factor ** (a - 1),
                self.backoff_max_s,
            )
            for a in range(1, self.max_retries + 1)
        ) + self.timeout_s * (self.max_retries + 1)


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Per-agent failure breaker with half-open recovery.

    Driven entirely by simulated time passed into its methods — there is
    no wall clock here, so breaker trajectories replay bit-exactly when
    a shard monitor is rebuilt after failover.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        open_duration_s: float = 10.0,
        recorder=None,
        listener=None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = int(failure_threshold)
        self.open_duration_s = float(open_duration_s)
        self._recorder = recorder
        # Called as ``listener(now, old_state, new_state, breaker)`` on
        # every transition (state values, not enum members).  The
        # telemetry bus wires breaker trajectories onto its
        # breaker-transitions topic through this hook.
        self._listener = listener
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self.trips = 0
        self.recoveries = 0

    def peek(self, now: float) -> BreakerState:
        """The breaker state at simulated time ``now``, without
        recording (or announcing) the end of an open window — what an
        agent plans its round by; the round's outcome records it."""
        if (
            self._state is BreakerState.OPEN
            and self._opened_at is not None
            and now - self._opened_at >= self.open_duration_s
        ):
            return BreakerState.HALF_OPEN
        return self._state

    def state_at(self, now: float) -> BreakerState:
        """The breaker state at simulated time ``now`` (advances
        ``OPEN`` → ``HALF_OPEN`` once the open window has elapsed)."""
        state = self.peek(now)
        if state is not self._state:
            self._state = state
            self._notify(now, BreakerState.OPEN, state)
        return state

    def _notify(
        self, now: float, old: BreakerState, new: BreakerState
    ) -> None:
        if self._listener is not None:
            self._listener(now, old.value, new.value, self)

    def record_success(self, now: float) -> None:
        state = self.state_at(now)
        self._consecutive_failures = 0
        if state is BreakerState.HALF_OPEN:
            self._state = BreakerState.CLOSED
            self._opened_at = None
            self.recoveries += 1
            if self._recorder is not None:
                self._recorder.count("breaker.recoveries")
            self._notify(now, BreakerState.HALF_OPEN, BreakerState.CLOSED)

    def record_failure(self, now: float) -> None:
        state = self.state_at(now)
        self._consecutive_failures += 1
        if state is BreakerState.HALF_OPEN:
            # The trial round failed: straight back to OPEN.
            self._trip(now)
        elif (
            state is BreakerState.CLOSED
            and self._consecutive_failures >= self.failure_threshold
        ):
            self._trip(now)

    def _trip(self, now: float) -> None:
        old = self._state
        self._state = BreakerState.OPEN
        self._opened_at = now
        self._consecutive_failures = 0
        self.trips += 1
        if self._recorder is not None:
            self._recorder.count("breaker.trips")
        self._notify(now, old, BreakerState.OPEN)

    def snapshot(self) -> tuple:
        """Picklable state tuple (merged through shard failover)."""
        return (
            self._state.value,
            self._consecutive_failures,
            self._opened_at,
            self.trips,
            self.recoveries,
        )

    def restore(self, snapshot: tuple) -> None:
        state, failures, opened_at, trips, recoveries = snapshot
        self._state = BreakerState(state)
        self._consecutive_failures = int(failures)
        self._opened_at = opened_at
        self.trips = int(trips)
        self.recoveries = int(recoveries)
