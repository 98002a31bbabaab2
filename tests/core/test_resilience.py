"""Tests for retry/backoff policy and the circuit breaker."""

import numpy as np
import pytest

from repro.core.resilience import (
    BACKOFF_JITTER,
    BREAKER_FAILURES,
    MAX_RETRIES,
    RETRY_TIMEOUT_S,
    BreakerState,
    CircuitBreaker,
    backoff_s,
)
from repro.network.draws import BACKOFF_COLUMN, PairwiseDrawSource

#: Two probe keys, as the fabric keys its pairs.
KEYS = np.array([0x1234, 0xABCD], dtype=np.uint64)


def jitter_uniform(seed, keys, attempt, at=1.0):
    return PairwiseDrawSource(seed).column(keys, at, BACKOFF_COLUMN, attempt)


class TestRetryPolicy:
    def test_backoff_is_deterministic(self):
        for attempt in (1, 2, 3):
            a = backoff_s(attempt, jitter_uniform(5, KEYS, attempt))
            b = backoff_s(attempt, jitter_uniform(5, KEYS, attempt))
            assert (a == b).all()

    def test_backoff_depends_on_key_and_attempt(self):
        first, second = jitter_uniform(0, KEYS, 1)
        assert first != second
        assert (jitter_uniform(0, KEYS, 1) != jitter_uniform(0, KEYS, 2)).all()

    def test_backoff_grows_and_caps(self):
        # u = 1 leaves no jitter: the deterministic delay.
        delays = [backoff_s(a, 1.0) for a in range(1, 6)]
        assert delays[0] == 0.05
        assert delays[1] == 0.10
        assert delays[2] == 0.20
        assert delays[3] == 0.40
        assert delays[4] == 0.40  # capped at BACKOFF_MAX_S

    def test_jitter_stays_inside_the_band(self):
        keys = np.arange(64, dtype=np.uint64)
        for attempt in (1, 2, 3):
            base = backoff_s(attempt, 1.0)
            delay = backoff_s(attempt, jitter_uniform(0, keys, attempt))
            assert ((base * (1 - BACKOFF_JITTER) <= delay)
                    & (delay <= base)).all()
            assert np.unique(delay).size == keys.size

    def test_attempts_are_one_based(self):
        with pytest.raises(ValueError):
            backoff_s(0, 0.5)

    def test_total_delay_bound_covers_any_actual_schedule(self):
        worst = sum(
            RETRY_TIMEOUT_S + backoff_s(a, 1.0)
            for a in range(1, MAX_RETRIES + 1)
        )
        actual = sum(
            RETRY_TIMEOUT_S + backoff_s(a, jitter_uniform(1, KEYS, a))
            for a in range(1, MAX_RETRIES + 1)
        )
        assert worst == pytest.approx(1.15)
        assert (actual <= worst).all()

    def test_bounded_under_probe_interval(self):
        # At the 2 s probe interval every retry lands before the next
        # round, so none is dropped for lateness.
        worst = sum(
            RETRY_TIMEOUT_S + backoff_s(a, 1.0)
            for a in range(1, MAX_RETRIES + 1)
        )
        assert worst < 2.0


def tripped_at(at: float) -> CircuitBreaker:
    """A breaker tripped by a failure streak at ``at``."""
    breaker = CircuitBreaker()
    for _ in range(BREAKER_FAILURES):
        breaker.record_failure(at)
    return breaker


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker()
        for t in range(BREAKER_FAILURES - 1):
            breaker.record_failure(float(t))
        assert breaker.state_at(1.5) is BreakerState.CLOSED
        breaker.record_failure(2.0)
        assert breaker.state_at(2.5) is BreakerState.OPEN
        assert breaker.trips == 1

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker()
        for t in range(BREAKER_FAILURES - 1):
            breaker.record_failure(float(t))
        breaker.record_success(2.0)
        for t in range(BREAKER_FAILURES - 1):
            breaker.record_failure(3.0 + t)
        assert breaker.state_at(5.0) is BreakerState.CLOSED

    def test_half_open_after_the_open_window(self):
        breaker = tripped_at(0.0)
        assert breaker.state_at(9.9) is BreakerState.OPEN
        assert breaker.state_at(10.0) is BreakerState.HALF_OPEN

    def test_half_open_success_recovers(self):
        breaker = tripped_at(0.0)
        breaker.record_success(12.0)
        assert breaker.state_at(12.0) is BreakerState.CLOSED
        assert breaker.recoveries == 1

    def test_half_open_failure_retrips(self):
        breaker = tripped_at(2.0)
        breaker.record_failure(15.0)  # the trial round fails
        assert breaker.state_at(15.0) is BreakerState.OPEN
        assert breaker.trips == 2
        # The new open window starts at the re-trip.
        assert breaker.state_at(24.0) is BreakerState.OPEN
        assert breaker.state_at(25.0) is BreakerState.HALF_OPEN

    def test_threshold_must_be_positive(self):
        assert BREAKER_FAILURES >= 1
        assert CircuitBreaker().state_at(0.0) is BreakerState.CLOSED

    def test_snapshot_restore_round_trip(self):
        breaker = tripped_at(1.0)
        copy = CircuitBreaker()
        copy.restore(breaker.snapshot())
        assert copy.snapshot() == breaker.snapshot()
        assert copy.state_at(2.0) is BreakerState.OPEN
        # The restored breaker continues the same trajectory.
        copy.record_success(20.0)
        breaker.record_success(20.0)
        assert copy.snapshot() == breaker.snapshot()
