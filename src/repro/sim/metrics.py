"""Metric recording for simulation runs.

Collects counters, gauges, and time series with simple aggregate queries.
This mirrors the role of the paper's cloud log service: the analyzer of
SkeletonHunter reads probing results that agents record here.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["MetricRegistry", "SeriesStats", "TimeSeries"]


@dataclass(frozen=True)
class SeriesStats:
    """Summary statistics of a time-series window.

    The seven-number summary matches what the SkeletonHunter analyzer
    computes per 30-second window (§5.2 of the paper): 25th/50th/75th
    percentiles, min, mean, standard deviation, and max.
    """

    count: int
    minimum: float
    maximum: float
    mean: float
    std: float
    p25: float
    p50: float
    p75: float

    def as_vector(self) -> Tuple[float, ...]:
        """The feature vector used by the short-term anomaly detector."""
        return (self.p25, self.p50, self.p75, self.minimum,
                self.mean, self.std, self.maximum)


def _percentile(sorted_values: List[float], q: float) -> float:
    """Linear-interpolated percentile of an already-sorted list."""
    if not sorted_values:
        raise ValueError("cannot take percentile of empty data")
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = q / 100.0 * (len(sorted_values) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return sorted_values[low]
    frac = rank - low
    return sorted_values[low] * (1 - frac) + sorted_values[high] * frac


class TimeSeries:
    """An append-only series of (time, value) samples."""

    def __init__(self, name: str = ""):
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def __len__(self) -> int:
        return len(self._times)

    def record(self, time: float, value: float) -> None:
        """Append a sample; times must be non-decreasing."""
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"time series {self.name!r} must be appended in order: "
                f"{time} < {self._times[-1]}"
            )
        self._times.append(time)
        self._values.append(value)

    def window(self, start: float, end: float) -> List[float]:
        """Values with ``start <= time < end`` (binary-search bounded)."""
        lo = bisect_left(self._times, start)
        hi = bisect_left(self._times, end)
        return self._values[lo:hi]

    def count_window(self, start: float, end: float) -> int:
        """How many samples fall in ``start <= time < end``.

        Same bounds as :meth:`window` without materializing the value
        slice — for callers that only need the count.
        """
        return (
            bisect_left(self._times, end)
            - bisect_left(self._times, start)
        )

    def values(self) -> List[float]:
        """All recorded values, in insertion order."""
        return list(self._values)

    def times(self) -> List[float]:
        """All recorded times, in insertion order."""
        return list(self._times)

    def last(self) -> Optional[Tuple[float, float]]:
        """The most recent (time, value) pair, or ``None`` when empty."""
        if not self._times:
            return None
        return self._times[-1], self._values[-1]

    @staticmethod
    def describe(values: Iterable[float]) -> SeriesStats:
        """Compute the seven-number summary of ``values``."""
        data = sorted(float(v) for v in values)
        if not data:
            raise ValueError("cannot describe an empty window")
        n = len(data)
        # Clamp against float summation rounding (mean must sit inside
        # the sample range even for pathological magnitudes).
        mean = min(max(sum(data) / n, data[0]), data[-1])
        var = sum((v - mean) ** 2 for v in data) / n
        return SeriesStats(
            count=n,
            minimum=data[0],
            maximum=data[-1],
            mean=mean,
            std=math.sqrt(var),
            p25=_percentile(data, 25),
            p50=_percentile(data, 50),
            p75=_percentile(data, 75),
        )


class MetricRegistry:
    """A flat namespace of counters and time series."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = defaultdict(float)
        self._series: Dict[str, TimeSeries] = {}

    def increment(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to counter ``name``."""
        self._counters[name] += amount

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0 when never incremented)."""
        return self._counters.get(name, 0.0)

    def series(self, name: str) -> TimeSeries:
        """The time series called ``name``, created on first access."""
        if name not in self._series:
            self._series[name] = TimeSeries(name)
        return self._series[name]

    def has_series(self, name: str) -> bool:
        """Whether a series called ``name`` has been created."""
        return name in self._series

    def counters(self, prefix: Optional[str] = None) -> Dict[str, float]:
        """A snapshot of all counters, optionally name-filtered.

        ``prefix`` keeps only counters whose name starts with it — e.g.
        ``counters("shard.2.")`` is one shard's slice of the merged
        registry the coordinator maintains.
        """
        if prefix is None:
            return dict(self._counters)
        return {
            name: value for name, value in self._counters.items()
            if name.startswith(prefix)
        }

    def series_names(self) -> List[str]:
        """Sorted names of all series."""
        return sorted(self._series)
