"""Unit test of the reference clock (``bench/speed.py``).

Run with ``python -m pytest bench/test_speed.py`` from the repository
root (not part of the tier-1 ``testpaths``).
"""

import time

import pytest

from bench.speed import REFERENCE_S, SpeedMeter


def _spin(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        sum(range(1000))


@pytest.fixture(scope="module")
def metered():
    """A meter run over three marks 0.3 s apart, busy all the while."""
    marks = []
    with SpeedMeter() as meter:
        for _ in range(3):
            marks.append(time.perf_counter())
            _spin(0.3)
        marks.append(time.perf_counter())
    return meter, marks


def test_reference_seconds_add_up_and_never_run_backwards(metered):
    meter, marks = metered
    parts = [
        meter.reference_seconds(a, b) for a, b in zip(marks, marks[1:])
    ]
    assert all(part > 0.0 for part in parts)
    assert sum(parts) == pytest.approx(
        meter.reference_seconds(marks[0], marks[-1])
    )
    # Readings outside the metered stretch clamp to its ends.
    assert meter.reference_seconds(marks[-1], marks[-1] + 60.0) < 0.1
    assert meter.reference_seconds(marks[0] - 60.0, marks[0]) < 0.1


def test_the_slowdown_taken_out_is_of_the_order_of_one(metered):
    meter, marks = metered
    slowdown = (marks[-1] - marks[0]) / meter.reference_seconds(
        marks[0], marks[-1]
    )
    # The sandbox runs the reference loop in 0.5x to 3x REFERENCE_S;
    # an order of magnitude either way means the loop or the constant
    # was changed, and every number of every earlier run with it.
    assert 0.1 < slowdown < 10.0
    assert REFERENCE_S == 0.001


def test_cpu_seconds_leave_out_the_sampler_and_follow_the_wall(metered):
    meter, marks = metered
    start, end = marks[0], marks[-1]
    wall = meter.reference_seconds(start, end)
    # A busy single-threaded stretch burns one CPU second per second,
    # so once the sampler's share is taken out of both, CPU equals
    # wall in reference seconds too.
    busy = meter.reference_cpu_seconds(start, end, end - start)
    assert busy == pytest.approx(wall)
    half = meter.reference_cpu_seconds(start, end, (end - start) / 2)
    assert 0.4 * wall < half < 0.5 * wall
    assert meter.reference_cpu_seconds(start, start, 1.0) == 0.0
