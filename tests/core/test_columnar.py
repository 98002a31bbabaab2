"""Unit tests for the detection engine and its analyzer wiring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analyzer import Analyzer
from repro.core.columnar import ColumnarDetectionEngine
from repro.core.detection import DetectorConfig
from repro.core.pinglist import ProbePair
from repro.network.issues import Symptom
from repro.network.packet import ProbeResult


def pair_of(i=0):
    return ProbePair.canonical(f"col-{2 * i}", f"col-{2 * i + 1}")


def probe(pair, at, lost=False, latency=20.0):
    return ProbeResult(
        src=pair.src, dst=pair.dst, sent_at=at, lost=lost,
        latency_us=None if lost else latency,
    )


class TestIngestAndWindows:
    def test_ingest_registers_rows_in_first_probe_order(self):
        engine = ColumnarDetectionEngine()
        second, first = pair_of(1), pair_of(0)
        engine.ingest(second, probe(second, 0.0))
        engine.ingest(first, probe(first, 0.0))
        assert engine.pairs() == [second, first]
        assert engine.num_pairs == 2

    def test_probe_past_boundary_closes_window_into_pending(self):
        engine = ColumnarDetectionEngine()
        pair = pair_of()
        engine.ingest(pair, probe(pair, 0.0))
        assert not engine.has_pending()
        engine.ingest(pair, probe(pair, 31.0))
        assert engine.has_pending()
        [verdict] = engine.collect(full=True)
        assert (verdict.window_start, verdict.window_end) == (0.0, 30.0)
        assert verdict.sent == 1 and verdict.lost == 0

    def test_out_of_order_delivered_probe_rejected(self):
        engine = ColumnarDetectionEngine()
        pair = pair_of()
        engine.ingest(pair, probe(pair, 10.0))
        with pytest.raises(ValueError, match="time order"):
            engine.ingest(pair, probe(pair, 5.0))

    def test_close_elapsed_emits_every_gap_window(self):
        engine = ColumnarDetectionEngine()
        pair = pair_of()
        engine.ingest(pair, probe(pair, 0.0))
        engine.close_elapsed(95.0)
        verdicts = engine.collect(full=True)
        # Windows [0,30), [30,60), [60,90): one probed, two empty.
        assert [v.window_start for v in verdicts] == [0.0, 30.0, 60.0]
        assert [v.sent for v in verdicts] == [1, 0, 0]


class TestShortWindowClassification:
    def test_all_lost_window_is_unconnectivity(self):
        engine = ColumnarDetectionEngine()
        pair = pair_of()
        for i in range(4):
            engine.ingest(pair, probe(pair, float(i), lost=True))
        engine.close_elapsed(31.0)
        [verdict] = engine.collect()
        assert verdict.anomaly is not None
        assert verdict.anomaly.symptom is Symptom.UNCONNECTIVITY
        assert verdict.anomaly.score == 1.0

    def test_partial_loss_is_packet_loss_with_rate_score(self):
        engine = ColumnarDetectionEngine()
        pair = pair_of()
        for i in range(8):
            engine.ingest(pair, probe(pair, float(i), lost=i == 0))
        engine.close_elapsed(31.0)
        [verdict] = engine.collect()
        assert verdict.anomaly.symptom is Symptom.PACKET_LOSS
        assert verdict.anomaly.score == pytest.approx(1 / 8)

    def test_latency_outlier_flagged_after_history_builds(self):
        config = DetectorConfig(min_history_windows=4)
        engine = ColumnarDetectionEngine(config)
        pair = pair_of()
        rng = np.random.default_rng(5)
        for w in range(6):
            lats = 20.0 + rng.random(8)
            engine.enqueue_window(
                pair, w * 30.0, (w + 1) * 30.0, 8, 0, lats
            )
        engine.enqueue_window(
            pair, 180.0, 210.0, 8, 0, 200.0 + rng.random(8)
        )
        verdicts = engine.collect(full=True)
        assert verdicts[-1].anomaly is not None
        assert verdicts[-1].anomaly.symptom is Symptom.HIGH_LATENCY
        assert verdicts[-1].anomaly.detector == "short_term_lof"
        assert verdicts[-1].score > config.lof_threshold
        assert verdicts[-1].median_shifted is True

    def test_anomalous_window_kept_out_of_baseline(self):
        engine = ColumnarDetectionEngine()
        pair = pair_of()
        rng = np.random.default_rng(6)
        for w in range(5):
            engine.enqueue_window(
                pair, w * 30.0, (w + 1) * 30.0, 8, 0,
                20.0 + rng.random(8),
            )
        engine.collect()
        before = len(engine.history(pair))
        engine.enqueue_window(
            pair, 150.0, 180.0, 8, 0, 300.0 + rng.random(8)
        )
        [verdict] = engine.collect()
        assert verdict.anomaly is not None
        assert len(engine.history(pair)) == before

    def test_history_ring_caps_at_lookback(self):
        config = DetectorConfig(lookback_windows=5)
        engine = ColumnarDetectionEngine(config)
        pair = pair_of()
        rng = np.random.default_rng(7)
        for w in range(12):
            engine.enqueue_window(
                pair, w * 30.0, (w + 1) * 30.0, 8, 0,
                20.0 + rng.random(8),
            )
        engine.collect()
        assert len(engine.history(pair)) == 5


class TestLeanVerdictEmission:
    def build(self, windows=3):
        engine = ColumnarDetectionEngine()
        pair = pair_of()
        rng = np.random.default_rng(8)
        for w in range(windows):
            engine.enqueue_window(
                pair, w * 30.0, (w + 1) * 30.0, 8, 0,
                20.0 + rng.random(8),
            )
        return engine, pair

    def test_healthy_windows_suppressed_without_watchers(self):
        engine, _ = self.build()
        assert engine.collect() == []

    def test_full_mode_emits_every_window(self):
        engine, _ = self.build()
        assert len(engine.collect(full=True)) == 3

    def test_watched_pairs_emit_healthy_windows(self):
        engine, pair = self.build()
        verdicts = engine.collect(watch={pair: object()})
        assert len(verdicts) == 3
        assert all(v.anomaly is None for v in verdicts)


class TestLongWindows:
    def test_first_long_window_fits_later_ones_tested(self):
        config = DetectorConfig(
            long_window_s=120.0, min_long_samples=8
        )
        engine = ColumnarDetectionEngine(config)
        pair = pair_of()
        rng = np.random.default_rng(9)
        row = None
        for i in range(24):
            at = i * 10.0
            row = engine.ingest(
                pair, probe(pair, at, latency=20.0 + rng.random())
            )
            engine.queue_elapsed_longs(row, at)
        engine.close_elapsed(240.0)
        longs = [
            v for v in engine.collect(full=True) if v.kind == "long"
        ]
        # First long window becomes the fit (reported unscored in full
        # mode); the second is Z-tested.
        fit, tested = longs
        assert fit.score is None and fit.samples == 12
        assert tested.score is not None and tested.samples == 12
        assert tested.anomaly is None

    def test_shifted_long_window_alarms(self):
        config = DetectorConfig(
            long_window_s=120.0, min_long_samples=8
        )
        engine = ColumnarDetectionEngine(config)
        pair = pair_of()
        rng = np.random.default_rng(10)
        for i in range(24):
            at = i * 10.0
            slow = 5.0 if at >= 120.0 else 1.0
            row = engine.ingest(pair, probe(
                pair, at, latency=(20.0 + rng.random()) * slow
            ))
            engine.queue_elapsed_longs(row, at)
        engine.close_elapsed(240.0)
        longs = [
            v for v in engine.collect() if v.kind == "long"
        ]
        assert len(longs) == 1
        assert longs[0].anomaly.detector == "long_term_ztest"
        assert longs[0].anomaly.symptom is Symptom.HIGH_LATENCY


class TestRowLifecycle:
    def test_drop_clears_state_and_recycles_rows(self):
        engine = ColumnarDetectionEngine()
        pair, other = pair_of(0), pair_of(1)
        engine.ingest(pair, probe(pair, 0.0))
        engine.ingest(pair, probe(pair, 31.0))
        row = engine.row_of(pair)
        engine.drop(pair)
        assert engine.row_of(pair) is None
        assert not engine.has_pending()
        assert engine.ingest(other, probe(other, 0.0)) == row

    def test_dropped_pair_restarts_fresh(self):
        engine = ColumnarDetectionEngine()
        pair = pair_of()
        rng = np.random.default_rng(11)
        for w in range(6):
            engine.enqueue_window(
                pair, w * 30.0, (w + 1) * 30.0, 8, 0,
                20.0 + rng.random(8),
            )
        engine.collect()
        engine.drop(pair)
        engine.ingest(pair, probe(pair, 1000.0))
        assert len(engine.history(pair)) == 0
        assert engine.consecutive_losses(engine.row_of(pair)) == 0


def queued_rows(engine):
    """The rows holding a queued window, read off the queue itself."""
    return {int(row) for block in engine._queue for row in block.rows}


OPS = st.lists(st.one_of(
    st.tuples(
        st.just("ingest"), st.sampled_from([1.0, 10.0, 31.0, 95.0]),
        st.permutations(range(6)), st.integers(min_value=1, max_value=6),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    st.tuples(st.just("close"), st.sampled_from([0.0, 29.0, 65.0])),
    st.tuples(st.just("longs")),
    st.tuples(st.just("enqueue"), st.integers(min_value=0, max_value=5)),
    st.tuples(st.just("collect"), st.booleans()),
    st.tuples(st.just("collect_rows"), st.lists(
        st.integers(min_value=0, max_value=5), max_size=6, unique=True,
    )),
    st.tuples(st.just("drop"), st.integers(min_value=0, max_value=5)),
), max_size=40)


@settings(max_examples=60, deadline=None)
@given(ops=OPS, seed=st.integers(min_value=0, max_value=2 ** 16))
def test_the_queued_set_is_the_rows_with_queued_windows(ops, seed):
    """Through ingests, short and long closes, direct enqueues,
    collects, drops and recycled rows, the engine's set of queued rows
    is exactly the rows the queue holds windows of, ``has_pending``
    agrees with it, and a collect yields rows in first-probe order."""
    engine = ColumnarDetectionEngine(DetectorConfig(
        long_window_s=120.0, min_long_samples=2, min_history_windows=2,
    ))
    rng = np.random.default_rng(seed)
    pool = [pair_of(i) for i in range(6)]
    now = 0.0
    for op in ops:
        kind = op[0]
        if kind == "ingest":
            _, step, order, count, loss = op
            now += step
            chosen = [pool[i] for i in order[:count]]
            lost = rng.random(count) < loss
            engine.ingest_batch(
                chosen, np.full(count, now), lost,
                np.where(lost, np.nan, 20.0 + rng.random(count)),
            )
        elif kind == "close":
            engine.close_elapsed(now + op[1])
        elif kind == "longs":
            rows = np.array(sorted(engine._rows.values()), dtype=np.int64)
            if rows.size:
                engine.queue_elapsed_longs(rows, now)
        elif kind == "enqueue":
            engine.enqueue_window(
                pool[op[1]], now, now + 30.0, 4, 0, 20.0 + rng.random(4)
            )
        elif kind == "collect":
            first = {pair: i for i, pair in enumerate(engine.pairs())}
            verdicts = engine.collect(full=op[1])
            places = [first[v.pair] for v in verdicts]
            assert places == sorted(places)
        elif kind == "collect_rows":
            rows = [
                engine.row_of(pool[i]) for i in op[1]
                if engine.row_of(pool[i]) is not None
            ]
            verdicts = engine.collect_rows(rows, full=True)
            places = [rows.index(engine.row_of(v.pair)) for v in verdicts]
            assert places == sorted(places)
        else:
            engine.drop(pool[op[1]])
        held = queued_rows(engine)
        assert engine._queued == held
        assert held <= set(engine._rows.values())
        assert engine.has_pending() == bool(held)


class TestAnalyzerColumnarWiring:
    def test_window_anomalies_surface_at_flush(self):
        analyzer = Analyzer()
        pair = pair_of()
        returned = []
        for i in range(4):
            returned.extend(analyzer.ingest(probe(
                pair, float(i), lost=True
            )))
        # Three losses stay below the fast threshold (4), and windows
        # are never scored at ingest...
        assert [a.detector for a in returned] == ["fast_loss"]
        flushed = analyzer.flush(35.0)
        assert [a.detector for a in flushed] == ["loss_rule"]
        assert analyzer.open_events()[0].symptom is (
            Symptom.UNCONNECTIVITY
        )

    def test_fast_loss_drains_pending_windows_first(self):
        config = DetectorConfig(fast_unconnectivity_probes=2)
        analyzer = Analyzer(config=config)
        pair = pair_of()
        analyzer.ingest(probe(pair, 0.0, lost=True))
        analyzer.ingest(probe(pair, 1.0, lost=True))
        analyzer.ingest(probe(pair, 2.0, lost=True))
        # Probe at t=31 closes window [0,30) *and* is the second loss
        # of a fresh run... consecutive run continues, so only the
        # window verdict lands; the event opened at the fast alarm.
        analyzer.flush(31.0)
        event = analyzer.events[0]
        assert event.first_detected_at == 1.0
        assert event.anomalies[0].detector == "fast_loss"
        assert {a.detector for a in event.anomalies} == {
            "fast_loss", "loss_rule"
        }

    def test_reset_scores_closed_windows_before_dropping(self):
        analyzer = Analyzer()
        pair = pair_of()
        for i in range(4):
            analyzer.ingest(probe(pair, float(i), lost=True))
        analyzer.ingest(probe(pair, 31.0, lost=True))
        analyzer.reset_pairs_involving([pair.src], 40.0)
        # The all-lost window [0,30) was pending at reset time; its
        # verdict must not be lost.
        assert any(
            a.detector == "loss_rule" for a in analyzer.anomalies
        )
        assert analyzer.monitored_pairs() == []
        assert all(not e.open for e in analyzer.events)
