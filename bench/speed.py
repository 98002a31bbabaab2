"""A clock that ticks at the speed of the machine.

The sandbox gives the benchmark a few virtual CPUs of a shared host,
and their speed wanders: the same pure-python loop takes 1x to 2x as
long from one second to the next, in plateaus of one to three seconds,
independently on each CPU.  Wall-clock medians over a 15 s window then
spread 15-30% between runs of the same code, which no regression bound
survives.

:class:`SpeedMeter` measures that wandering and takes it out.  A
sampler thread runs a fixed reference loop every few tens of
milliseconds and reads its own CPU time for it
(``time.thread_time``, so waiting for the interpreter lock does not
count).  A slice of wall time in which the loop cost ``c`` seconds
instead of :data:`REFERENCE_S` ran on a machine ``c / REFERENCE_S``
times slower than the reference, so it is worth that much less
*reference time*; :meth:`SpeedMeter.reference_seconds` adds the slices
up.  Every timing the benchmark reports is in reference seconds:
seconds on a machine that runs the reference loop in exactly
:data:`REFERENCE_S`.  The raw wall seconds are kept beside them in the
result file.

One meter sees one CPU, so :func:`pin_to_one_cpu` pins the benchmark
process (and every worker process it spawns, which inherit the mask)
to a single CPU before anything is measured.
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from typing import List

__all__ = ["REFERENCE_S", "SpeedMeter", "pin_to_one_cpu"]

#: What the reference loop costs on the reference machine.  Chosen
#: near this sandbox's quiet speed so reference seconds read like
#: seconds; any constant would do, and it must never change.
REFERENCE_S = 0.001
_ITERATIONS = 8000
#: Sleep between samples: the sampler costs ~3% of one CPU.
_PAUSE_S = 0.03


def pin_to_one_cpu() -> int:
    """Pin this process to the last CPU it may run on; returns it."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _reference_loop() -> int:
    """Dict, list and integer work in the interpreter, like the
    program's own hot loops."""
    table: dict = {}
    seen: list = []
    total = 0
    for i in range(_ITERATIONS):
        table[i & 1023] = i
        seen.append(i)
        total += table[i & 511]
    return total


class SpeedMeter:
    """Samples the machine's speed on a thread; use as a context
    manager around everything that is timed, convert afterwards."""

    def __init__(self) -> None:
        # Parallel lists, one entry per sample: when it ended
        # (perf_counter), reference seconds elapsed so far, and the
        # sampler's own CPU seconds so far.  Entry 0 is the start.
        self._at: List[float] = []
        self._reference: List[float] = []
        self._own_cpu: List[float] = []
        self._done = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="speed-meter", daemon=True
        )

    def __enter__(self) -> "SpeedMeter":
        self._sample()      # the first sample only marks the start
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._done.set()
        self._thread.join()
        self._sample()      # so the last timestamps are covered

    def _run(self) -> None:
        while not self._done.wait(_PAUSE_S):
            self._sample()

    def _sample(self) -> None:
        began = time.thread_time()
        _reference_loop()
        cost = time.thread_time() - began
        now = time.perf_counter()
        if not self._at:
            self._reference.append(0.0)
            self._own_cpu.append(0.0)
        else:
            # The slice since the last sample, less the loop itself,
            # ran on a machine cost/REFERENCE_S times slower.
            useful = max(now - self._at[-1] - cost, 0.0)
            self._reference.append(
                self._reference[-1] + useful * REFERENCE_S / cost
            )
            self._own_cpu.append(self._own_cpu[-1] + cost)
        self._at.append(now)    # last: readers index by this list

    def _interpolate(self, series: List[float], when: float) -> float:
        at = self._at
        hi = bisect.bisect_right(at, when)
        if hi == 0:
            return series[0]
        if hi == len(at):
            return series[-1]
        lo = hi - 1
        share = (when - at[lo]) / (at[hi] - at[lo])
        return series[lo] + share * (series[hi] - series[lo])

    def reference_seconds(self, start: float, end: float) -> float:
        """Reference seconds between two ``perf_counter`` readings
        taken while the meter ran (call after the ``with`` block)."""
        return (
            self._interpolate(self._reference, end)
            - self._interpolate(self._reference, start)
        )

    def reference_cpu_seconds(
        self, start: float, end: float, cpu_s: float
    ) -> float:
        """``cpu_s`` process CPU seconds burned between ``start`` and
        ``end``, less the sampler's own, in reference seconds."""
        own = (
            self._interpolate(self._own_cpu, end)
            - self._interpolate(self._own_cpu, start)
        )
        useful_wall = end - start - own
        if useful_wall <= 0.0:
            return 0.0
        return (
            (cpu_s - own)
            * self.reference_seconds(start, end) / useful_wall
        )
