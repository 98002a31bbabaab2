"""Tests for the analyzer's incident management."""

import numpy as np
import pytest

from repro.cluster.identifiers import ContainerId, EndpointId, TaskId
from repro.core.analyzer import Analyzer
from repro.core.detection import DetectorConfig
from repro.core.pinglist import ProbePair
from repro.network.issues import Symptom
from repro.network.packet import ProbeResult
from repro.obs.trace import TraceRecorder


def make_pair(rank_b=1):
    a = EndpointId(ContainerId(TaskId(0), 0), 0)
    b = EndpointId(ContainerId(TaskId(0), rank_b), 0)
    return ProbePair.canonical(a, b)


def feed_healthy(analyzer, pair, start, end, step=2.0, latency=10.0,
                 seed=0):
    rng = np.random.default_rng(seed)
    t = start
    while t < end:
        analyzer.ingest(ProbeResult(
            src=pair.src, dst=pair.dst, sent_at=t, lost=False,
            latency_us=float(latency + rng.normal(0, 0.3)),
        ))
        t += step


def feed_lost(analyzer, pair, start, end, step=2.0):
    t = start
    while t < end:
        analyzer.ingest(ProbeResult(
            src=pair.src, dst=pair.dst, sent_at=t, lost=True,
        ))
        t += step


class TestFastUnconnectivity:
    def test_consecutive_losses_alarm_immediately(self):
        analyzer = Analyzer(DetectorConfig(fast_unconnectivity_probes=4))
        pair = make_pair()
        feed_healthy(analyzer, pair, 0.0, 20.0)
        feed_lost(analyzer, pair, 20.0, 30.0)
        assert len(analyzer.events) == 1
        event = analyzer.events[0]
        assert event.symptom == Symptom.UNCONNECTIVITY
        # 4 consecutive losses at 2 s spacing -> detected ~8 s in.
        assert event.first_detected_at == pytest.approx(26.0)

    def test_fast_path_fires_once_per_run(self):
        analyzer = Analyzer(DetectorConfig(fast_unconnectivity_probes=3))
        pair = make_pair()
        feed_lost(analyzer, pair, 0.0, 40.0)
        fast = [
            a for a in analyzer.anomalies if a.detector == "fast_loss"
        ]
        assert len(fast) == 1

    def test_disabled_fast_path(self):
        analyzer = Analyzer(DetectorConfig(fast_unconnectivity_probes=0))
        pair = make_pair()
        feed_lost(analyzer, pair, 0.0, 20.0)
        assert analyzer.events == []


class TestIncidentLifecycle:
    def test_persistent_fault_is_one_event(self):
        analyzer = Analyzer()
        pair = make_pair()
        feed_healthy(analyzer, pair, 0.0, 30.0)
        feed_lost(analyzer, pair, 30.0, 150.0)
        analyzer.flush(150.0)
        assert len(analyzer.events) == 1
        assert len(analyzer.events[0].anomalies) >= 2

    def test_event_resolves_after_recovery(self):
        analyzer = Analyzer(resolve_after_s=60.0)
        pair = make_pair()
        feed_lost(analyzer, pair, 0.0, 30.0)
        feed_healthy(analyzer, pair, 30.0, 200.0)
        analyzer.flush(200.0)
        assert len(analyzer.events) == 1
        assert not analyzer.events[0].open
        assert analyzer.open_events() == []

    def test_symptom_precedence_upgrades(self):
        analyzer = Analyzer()
        pair = make_pair()
        # partial loss first (PACKET_LOSS), then a dead path.
        feed_healthy(analyzer, pair, 0.0, 28.0)
        analyzer.ingest(ProbeResult(
            src=pair.src, dst=pair.dst, sent_at=28.0, lost=True
        ))
        feed_healthy(analyzer, pair, 30.0, 58.0, seed=1)
        feed_lost(analyzer, pair, 60.0, 100.0)
        analyzer.flush(130.0)
        open_or_any = analyzer.events[-1]
        assert open_or_any.symptom == Symptom.UNCONNECTIVITY

    def test_two_pairs_two_events(self):
        analyzer = Analyzer()
        a, b = make_pair(1), make_pair(2)
        feed_lost(analyzer, a, 0.0, 40.0)
        feed_lost(analyzer, b, 0.0, 40.0)
        analyzer.flush(70.0)
        assert len(analyzer.events) == 2
        assert {e.pair for e in analyzer.events} == {a, b}

    def test_events_between(self):
        analyzer = Analyzer()
        pair = make_pair()
        feed_lost(analyzer, pair, 0.0, 20.0)
        assert analyzer.events_between(0.0, 100.0) == analyzer.events
        assert analyzer.events_between(500.0, 600.0) == []

    def test_monitored_pairs_sorted(self):
        analyzer = Analyzer()
        a, b = make_pair(2), make_pair(1)
        feed_healthy(analyzer, a, 0.0, 4.0)
        feed_healthy(analyzer, b, 0.0, 4.0)
        assert analyzer.monitored_pairs() == sorted([a, b])


class TestPathChangeReset:
    def test_reset_discards_monitors_and_resolves_events(self):
        analyzer = Analyzer()
        pair = make_pair()
        feed_lost(analyzer, pair, 0.0, 40.0)
        assert analyzer.open_events()
        affected = analyzer.reset_pairs_involving(
            [pair.src], now=50.0
        )
        assert affected == [pair]
        assert analyzer.open_events() == []
        assert analyzer.monitored_pairs() == []
        # The recorded (resolved) event is kept for posterity.
        assert analyzer.events and not analyzer.events[0].open

    def test_reset_only_touches_involved_pairs(self):
        analyzer = Analyzer()
        a, b = make_pair(1), make_pair(2)
        feed_healthy(analyzer, a, 0.0, 10.0)
        feed_healthy(analyzer, b, 0.0, 10.0)
        analyzer.reset_pairs_involving([a.dst], now=20.0)
        assert analyzer.monitored_pairs() == [b]

    def test_new_baseline_learned_after_reset(self):
        # A pair moves to a longer path: latency legitimately doubles.
        analyzer = Analyzer()
        pair = make_pair()
        feed_healthy(analyzer, pair, 0.0, 300.0, latency=10.0)
        analyzer.reset_pairs_involving([pair.src], now=300.0)
        feed_healthy(analyzer, pair, 300.0, 700.0, latency=20.0, seed=3)
        analyzer.flush(700.0)
        # Without the reset the 20 us windows would alarm against the
        # 10 us baseline; after it they simply become the new normal.
        assert analyzer.open_events() == []

    def test_reset_counts_and_traces_the_resolution(self):
        # A migrated pair's incident must not dangle in the trace:
        # opened - resolved is the open count, across the reset too.
        recorder = TraceRecorder()
        analyzer = Analyzer(recorder=recorder)
        moved, other = make_pair(1), make_pair(2)
        feed_lost(analyzer, moved, 0.0, 40.0)
        feed_lost(analyzer, other, 0.0, 40.0)
        analyzer.reset_pairs_involving([moved.dst], now=50.0)
        counters = recorder.metrics.counters()
        assert counters["events.opened"] == 2
        assert counters["events.resolved"] == 1
        assert len(analyzer.open_events()) == 1
        [resolved] = recorder.events("detect.event_resolved")
        assert resolved.fields["reason"] == "path_changed"
        assert resolved.fields["duration_s"] == 50.0 - 6.0
        assert resolved.sim_time == 50.0

    def test_recovery_resolution_carries_no_reason(self):
        recorder = TraceRecorder()
        analyzer = Analyzer(resolve_after_s=60.0, recorder=recorder)
        pair = make_pair()
        feed_lost(analyzer, pair, 0.0, 30.0)
        feed_healthy(analyzer, pair, 30.0, 200.0)
        analyzer.flush(200.0)
        [resolved] = recorder.events("detect.event_resolved")
        assert "reason" not in resolved.fields
        assert recorder.metrics.counters()["events.resolved"] == 1
