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
* **All jitter is keyed.**  :func:`backoff_s` takes its uniform from
  the caller, drawn from what is retried (a probe's keyed block, a
  flow-table dump's :func:`repro.network.draws.keyed_uniform`) — so
  retry timing is reproducible in any process and the sharded plane's
  bit-equivalence gate keeps holding.

The :class:`CircuitBreaker` follows the classic three-state machine:

``CLOSED``
    normal operation; consecutive failures are counted.
``OPEN``
    tripped after :data:`BREAKER_FAILURES` consecutive failures; the agent
    falls back to coarse ping-list coverage until
    :data:`BREAKER_OPEN_S` of simulated time has passed.
``HALF_OPEN``
    after the open window, one trial round is allowed through; success
    closes the breaker (recovery), failure re-opens it.
"""

from __future__ import annotations

import enum
from typing import Optional, Union

import numpy as np

__all__ = [
    "BACKOFF_BASE_S",
    "BACKOFF_FACTOR",
    "BACKOFF_JITTER",
    "BACKOFF_MAX_S",
    "BREAKER_FAILURES",
    "BREAKER_OPEN_S",
    "BreakerState",
    "CircuitBreaker",
    "MAX_RETRIES",
    "RETRY_TIMEOUT_S",
    "backoff_s",
]


#: Simulated seconds before an outstanding probe reply counts as a
#: monitor-plane timeout (a *late* reply, retried like a lost one).
RETRY_TIMEOUT_S = 0.5
#: Retries after the initial attempt.
MAX_RETRIES = 2
BACKOFF_BASE_S = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_MAX_S = 0.4
#: Fraction of the deterministic delay replaced by keyed jitter.
BACKOFF_JITTER = 0.5
#: Consecutive failures that trip a closed breaker.
BREAKER_FAILURES = 3
#: Simulated seconds a tripped breaker stays open.
BREAKER_OPEN_S = 10.0


def backoff_s(
    attempt: int, u: Union[float, np.ndarray]
) -> Union[float, np.ndarray]:
    """Delay before retry ``attempt`` (1-based): exponential, capped,
    with :data:`BACKOFF_JITTER` of it replaced by the keyed uniform
    ``u`` — a scalar, or a column of one per row.  The caller draws
    ``u`` from the probe (or dump) it retries, so the delay is a pure
    function of it, never of call order."""
    if attempt < 1:
        raise ValueError(f"attempts are 1-based, got {attempt}")
    base = min(BACKOFF_BASE_S * BACKOFF_FACTOR ** (attempt - 1), BACKOFF_MAX_S)
    return base * (1.0 - BACKOFF_JITTER + BACKOFF_JITTER * u)


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

    def __init__(self, recorder=None, listener=None) -> None:
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
            and now - self._opened_at >= BREAKER_OPEN_S
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
            and self._consecutive_failures >= BREAKER_FAILURES
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
