"""Tests for metric recording and window statistics."""

import pytest

from repro.sim.metrics import MetricRegistry, TimeSeries


class TestTimeSeries:
    def test_record_and_length(self):
        series = TimeSeries("x")
        series.record(1.0, 10.0)
        series.record(2.0, 20.0)
        assert len(series) == 2

    def test_out_of_order_append_rejected(self):
        series = TimeSeries("x")
        series.record(5.0, 1.0)
        with pytest.raises(ValueError):
            series.record(4.0, 2.0)

    def test_equal_timestamps_allowed(self):
        series = TimeSeries("x")
        series.record(1.0, 1.0)
        series.record(1.0, 2.0)
        assert series.values() == [1.0, 2.0]

    def test_window_is_half_open(self):
        series = TimeSeries("x")
        for t in range(5):
            series.record(float(t), float(t) * 10)
        assert series.window(1.0, 3.0) == [10.0, 20.0]

    def test_window_outside_range_is_empty(self):
        series = TimeSeries("x")
        series.record(1.0, 1.0)
        assert series.window(5.0, 10.0) == []

    def test_last(self):
        series = TimeSeries("x")
        assert series.last() is None
        series.record(3.0, 7.0)
        assert series.last() == (3.0, 7.0)


class TestIngestionOrder:
    """Out-of-order and duplicate-timestamp ingestion: rejection must
    leave the series intact, and duplicates all land in their window."""

    def test_rejected_append_leaves_the_series_unchanged(self):
        series = TimeSeries("x")
        series.record(5.0, 1.0)
        series.record(6.0, 2.0)
        with pytest.raises(ValueError):
            series.record(4.0, 99.0)
        assert series.times() == [5.0, 6.0]
        assert series.values() == [1.0, 2.0]

    def test_rejection_keeps_later_appends_working(self):
        series = TimeSeries("x")
        series.record(5.0, 1.0)
        with pytest.raises(ValueError):
            series.record(4.0, 99.0)
        series.record(5.0, 2.0)  # equal to the last time: allowed
        series.record(7.0, 3.0)
        assert series.values() == [1.0, 2.0, 3.0]

    def test_duplicate_timestamps_all_land_in_the_window(self):
        series = TimeSeries("x")
        for value in (1.0, 2.0, 3.0):
            series.record(10.0, value)
        assert series.window(10.0, 10.5) == [1.0, 2.0, 3.0]


class TestDescribe:
    def test_single_value(self):
        stats = TimeSeries.describe([5.0])
        assert stats.minimum == stats.maximum == stats.mean == 5.0
        assert stats.std == 0.0
        assert stats.p50 == 5.0

    def test_known_values(self):
        stats = TimeSeries.describe([1.0, 2.0, 3.0, 4.0])
        assert stats.mean == 2.5
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        assert stats.p50 == 2.5
        assert stats.p25 == 1.75
        assert stats.p75 == 3.25

    def test_std_is_population_std(self):
        stats = TimeSeries.describe([2.0, 4.0])
        assert stats.std == pytest.approx(1.0)

    def test_order_insensitive(self):
        a = TimeSeries.describe([3.0, 1.0, 2.0])
        b = TimeSeries.describe([1.0, 2.0, 3.0])
        assert a == b

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries.describe([])

    def test_as_vector_has_seven_entries(self):
        stats = TimeSeries.describe([1.0, 2.0, 3.0])
        vector = stats.as_vector()
        assert len(vector) == 7
        assert vector == (
            stats.p25, stats.p50, stats.p75, stats.minimum,
            stats.mean, stats.std, stats.maximum,
        )


class TestMetricRegistry:
    def test_counter_starts_at_zero(self):
        assert MetricRegistry().counter("nope") == 0.0

    def test_increment(self):
        registry = MetricRegistry()
        registry.increment("probes")
        registry.increment("probes", 2.5)
        assert registry.counter("probes") == 3.5

    def test_series_created_on_access(self):
        registry = MetricRegistry()
        assert not registry.has_series("lat")
        registry.series("lat").record(0.0, 1.0)
        assert registry.has_series("lat")
        assert registry.series_names() == ["lat"]

    def test_counters_snapshot_is_a_copy(self):
        registry = MetricRegistry()
        registry.increment("x")
        snapshot = registry.counters()
        snapshot["x"] = 99
        assert registry.counter("x") == 1.0


class TestBoundedRetention:
    """There is none: a series keeps every sample it was given."""

    def test_unbounded_series_is_always_complete(self):
        series = TimeSeries("x")
        for t in range(100):
            series.record(float(t), 1.0)
        assert len(series) == 100
        assert series.window(0.0, 100.0) == [1.0] * 100


class TestCountWindow:
    def test_counts_match_window_slice(self):
        series = TimeSeries("x")
        for t in range(10):
            series.record(float(t), float(t) * 2)
        assert series.count_window(2.0, 7.0) == len(
            series.window(2.0, 7.0)
        )
        assert series.count_window(2.0, 7.0) == 5

    def test_half_open_bounds(self):
        series = TimeSeries("x")
        for t in (1.0, 2.0, 3.0):
            series.record(t, 0.0)
        assert series.count_window(1.0, 3.0) == 2
        assert series.count_window(0.0, 0.5) == 0
        assert series.count_window(3.0, 100.0) == 1
