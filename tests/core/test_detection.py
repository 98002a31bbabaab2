"""§5.2 detection behaviour — window buffering, the loss rules, the
short-term LOF detector with its median-shift gate, the long-term
Z-test — observed through :class:`Analyzer`.

The classes keep the names of the paper's parts (per-pair monitor,
short-term detector, long-term detector); all of them are implemented
by the one detection engine, so every case here feeds probes and reads
the analyzer's anomalies and trace events.
"""

import numpy as np
import pytest

from repro.cluster.identifiers import ContainerId, EndpointId, TaskId
from repro.core.analyzer import Analyzer
from repro.core.detection import DetectorConfig
from repro.core.pinglist import ProbePair
from repro.network.issues import Symptom
from repro.network.packet import ProbeResult
from repro.obs.trace import TraceRecorder


def make_pair():
    a = EndpointId(ContainerId(TaskId(0), 0), 0)
    b = EndpointId(ContainerId(TaskId(0), 1), 0)
    return ProbePair.canonical(a, b)


def probe(pair, t, latency=10.0, lost=False):
    return ProbeResult(
        src=pair.src, dst=pair.dst, sent_at=t, lost=lost,
        latency_us=None if lost else latency,
    )


def window_rules(**overrides):
    """An analyzer whose only alarms come from closed windows."""
    return Analyzer(
        DetectorConfig(fast_unconnectivity_probes=0, **overrides)
    )


def feed_window(analyzer, pair, start=0.0, latencies=(10.0, 10.5, 9.8),
                lost=0):
    """One 30-second window: ``lost`` dead probes, then the latencies."""
    outcomes = [None] * lost + list(latencies)
    for i, latency in enumerate(outcomes):
        analyzer.ingest(probe(
            pair, start + i * 30.0 / len(outcomes),
            latency, lost=latency is None,
        ))


def window_anomaly(analyzer, pair, start=0.0, **window):
    """Feed one window, close it, and return its verdict (or None)."""
    feed_window(analyzer, pair, start, **window)
    found = analyzer.flush(start + 30.0)
    return found[0] if found else None


class TestPairMonitor:
    def test_window_closes_after_30s(self):
        pair = make_pair()
        analyzer = window_rules()
        for t in (0.0, 1.0, 2.0):
            analyzer.ingest(probe(pair, t, lost=True))
        # Scoring is deferred to flush; the probe at 31 s opens the
        # next window instead of diluting the all-lost one.
        assert analyzer.ingest(probe(pair, 31.0)) == []
        [anomaly] = analyzer.flush(31.0)
        assert (anomaly.window_start, anomaly.detected_at) == (0.0, 30.0)
        assert anomaly.symptom == Symptom.UNCONNECTIVITY

    def test_flush_closes_elapsed_windows(self):
        pair = make_pair()
        recorder = TraceRecorder()
        analyzer = Analyzer(recorder=recorder)
        analyzer.ingest(probe(pair, 0.0))
        analyzer.flush(95.0)
        # [0,30) [30,60) [60,90): one probed, two empty.
        counters = recorder.metrics.counters()
        assert counters["windows.skipped_empty"] == 2

    def test_loss_counted(self):
        pair = make_pair()
        analyzer = window_rules()
        analyzer.ingest(probe(pair, 0.0, lost=True))
        analyzer.ingest(probe(pair, 1.0))
        [anomaly] = analyzer.flush(31.0)
        assert anomaly.symptom == Symptom.PACKET_LOSS
        assert anomaly.score == 0.5

    def test_consecutive_loss_counter(self):
        pair = make_pair()
        analyzer = Analyzer(DetectorConfig(fast_unconnectivity_probes=3))
        outcomes = [True, True, False, True, True]
        for t, lost in enumerate(outcomes):
            # A delivered probe restarts the run: never three in a row.
            assert analyzer.ingest(probe(pair, float(t), lost=lost)) == []
        [fast] = analyzer.ingest(probe(pair, 5.0, lost=True))
        assert fast.detector == "fast_loss"

    def test_long_window_aggregation(self):
        pair = make_pair()
        recorder = TraceRecorder()
        analyzer = Analyzer(
            DetectorConfig(long_window_s=120.0, min_long_samples=8),
            recorder=recorder,
        )
        for t in range(0, 250, 10):
            analyzer.ingest(probe(pair, float(t)))
        analyzer.flush(240.0)
        # [0,120) became the fit; [120,240) was tested on its samples.
        [tested] = recorder.events("detect.ztest")
        assert tested.sim_time == 240.0
        assert tested.fields["samples"] == 12


class TestShortTermDetector:
    def test_total_loss_is_unconnectivity(self):
        anomaly = window_anomaly(
            window_rules(), make_pair(), latencies=(), lost=10
        )
        assert anomaly.symptom == Symptom.UNCONNECTIVITY

    def test_partial_loss_is_packet_loss(self):
        anomaly = window_anomaly(
            window_rules(), make_pair(), latencies=(10.0,) * 9, lost=1
        )
        assert anomaly.symptom == Symptom.PACKET_LOSS
        assert anomaly.score == pytest.approx(0.1)

    def test_loss_below_threshold_ignored(self):
        anomaly = window_anomaly(
            window_rules(loss_rate_threshold=0.2), make_pair(),
            latencies=(10.0,) * 9, lost=1,
        )
        assert anomaly is None

    def test_lof_needs_history(self):
        analyzer = window_rules()
        pair = make_pair()
        rng = np.random.default_rng(0)
        # One window short of min_history_windows: the baseline is
        # still building, so even a wild window passes silently.
        building = analyzer.config.min_history_windows - 1
        for i in range(building):
            assert window_anomaly(
                analyzer, pair, i * 30.0,
                latencies=tuple(rng.normal(10.0, 0.3, size=10)),
            ) is None
        assert window_anomaly(
            analyzer, pair, building * 30.0, latencies=(500.0,) * 5
        ) is None

    def test_latency_shift_detected_after_history(self):
        analyzer = window_rules()
        pair = make_pair()
        rng = np.random.default_rng(0)
        for i in range(6):
            window_anomaly(
                analyzer, pair, i * 30.0,
                latencies=tuple(rng.normal(10.0, 0.3, size=10)),
            )
        anomaly = window_anomaly(
            analyzer, pair, 210.0,
            latencies=(120.0, 118.0, 122.0, 119.0),
        )
        assert anomaly is not None
        assert anomaly.symptom == Symptom.HIGH_LATENCY
        assert anomaly.detector == "short_term_lof"

    def test_anomalous_window_kept_out_of_baseline(self):
        analyzer = window_rules()
        pair = make_pair()
        rng = np.random.default_rng(0)
        for i in range(6):
            window_anomaly(
                analyzer, pair, i * 30.0,
                latencies=tuple(rng.normal(10.0, 0.3, size=10)),
            )
        slow = tuple(rng.normal(120.0, 0.5, size=10))
        first = window_anomaly(analyzer, pair, 210.0, latencies=slow)
        second = window_anomaly(analyzer, pair, 240.0, latencies=slow)
        # A persistent failure must not teach the detector it is normal.
        assert first is not None and second is not None

    def test_unconnectivity_requires_min_probes(self):
        anomaly = window_anomaly(
            window_rules(min_probes_for_unconnectivity=5), make_pair(),
            latencies=(), lost=2,
        )
        assert anomaly.symptom == Symptom.PACKET_LOSS


class TestLongTermDetector:
    """Two 30-minute aggregates of 200 probes each; the second is
    scaled.  Only the Z-test's verdicts are read (a 25% step is also
    LOF's business)."""

    def _run(self, scale=1.0, n=200, **config):
        pair = make_pair()
        recorder = TraceRecorder()
        analyzer = Analyzer(DetectorConfig(**config), recorder=recorder)
        for window, (factor, seed) in enumerate(((1.0, 0), (scale, 1))):
            rng = np.random.default_rng(seed)
            latencies = np.exp(rng.normal(np.log(10.0), 0.05, n))
            for i, latency in enumerate(latencies * factor):
                analyzer.ingest(probe(
                    pair, 1800.0 * (window + i / n), float(latency)
                ))
        analyzer.flush(3600.0)
        flagged = [
            a for a in analyzer.anomalies
            if a.detector == "long_term_ztest"
        ]
        return flagged, recorder.events("detect.ztest")

    def test_first_window_becomes_reference(self):
        _, tested = self._run()
        # The first aggregate is the fit; only the second is tested.
        assert [event.sim_time for event in tested] == [3600.0]

    def test_stable_latency_not_flagged(self):
        flagged, _ = self._run()
        assert flagged == []

    def test_gradual_degradation_flagged(self):
        [anomaly], _ = self._run(scale=1.25)
        assert anomaly.symptom == Symptom.HIGH_LATENCY
        assert anomaly.window_start == 1800.0

    def test_improvement_not_flagged(self):
        flagged, [tested] = self._run(scale=0.8)
        assert flagged == []  # only slow-downs are failures
        assert tested.fields["z"] < 0

    def test_small_windows_skipped(self):
        # 5 samples against min_long_samples=50: never a fit, so the
        # tripled second aggregate is not tested either.
        flagged, tested = self._run(scale=3.0, n=5)
        assert flagged == [] and tested == []


class TestMedianShiftGate:
    def _primed(self, **config):
        analyzer = window_rules(**config)
        pair = make_pair()
        rng = np.random.default_rng(0)
        for i in range(6):
            window_anomaly(
                analyzer, pair, i * 30.0,
                latencies=tuple(rng.normal(10.0, 0.3, size=12)),
            )
        return analyzer, pair

    def test_single_probe_spike_does_not_alarm(self):
        """A transient congestion spike moves max/std but not the
        median: the gate keeps it out of the event stream (§5.2)."""
        analyzer, pair = self._primed()
        spiky = (10.1, 9.9, 10.0, 10.2, 9.8, 10.1, 10.0, 9.9, 72.0)
        assert window_anomaly(
            analyzer, pair, 300.0, latencies=spiky
        ) is None

    def test_median_shift_still_alarms(self):
        analyzer, pair = self._primed()
        shifted = tuple(
            np.random.default_rng(1).normal(55.0, 0.5, size=12)
        )
        anomaly = window_anomaly(
            analyzer, pair, 300.0, latencies=shifted
        )
        assert anomaly is not None
        assert anomaly.symptom == Symptom.HIGH_LATENCY

    def test_small_shift_below_threshold_ignored(self):
        analyzer, pair = self._primed(median_shift_threshold=0.5)
        mild = tuple(
            np.random.default_rng(1).normal(13.0, 0.3, size=12)
        )
        assert window_anomaly(
            analyzer, pair, 300.0, latencies=mild
        ) is None

    def test_reset_forgets_baseline(self):
        analyzer, pair = self._primed()
        analyzer.reset_pairs_involving([pair.src], now=300.0)
        # Without history, even a wild window builds baseline silently.
        wild = (120.0, 121.0, 119.0, 120.5)
        assert window_anomaly(
            analyzer, pair, 300.0, latencies=wild
        ) is None
