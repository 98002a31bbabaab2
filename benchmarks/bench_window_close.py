"""Per-layer: one window close of the detection engine at 3,072 pairs.

`steady-2048` monitors 3,072 pairs and closes every pair's 30-second
window at once, every 15 rounds.  This times one ``collect`` of such a
wave against a full 10-window history: all pairs healthy (nothing is
emitted, and the median-shift gate leaves LOF with no row to score),
and the same wave with 5% of the pairs shifted, each of which LOF
scores and alarms.  The window itself is closed untimed, in each
round's set-up.
"""

import numpy as np
import pytest

from repro.core.columnar import ColumnarDetectionEngine
from repro.core.detection import DetectorConfig
from repro.core.pinglist import ProbePair

PAIRS = 3072
#: Probes per 30-second window at `steady-2048`'s 2-second interval.
SAMPLES = 15
INTERVAL_S = 2.0
SHIFTED = 0.05


class Wave:
    """An engine whose pairs' histories are full, and a way to queue
    the next window of every pair."""

    def __init__(self):
        self.config = DetectorConfig()
        self.engine = ColumnarDetectionEngine(self.config)
        self.pairs = [
            ProbePair.canonical(f"a{i}", f"b{i}") for i in range(PAIRS)
        ]
        self.rng = np.random.default_rng(43)
        self.now = 0.0
        self.shifted = np.zeros(PAIRS, dtype=bool)
        self.shifted[self.rng.permutation(PAIRS)[:int(PAIRS * SHIFTED)]] = True
        for _ in range(self.config.lookback_windows):
            self.close(shift=False)
            assert self.engine.collect() == []

    def close(self, shift):
        """Probe one window of every pair and queue it."""
        lost = np.zeros(PAIRS, dtype=bool)
        for _ in range(SAMPLES):
            latency = 20.0 + self.rng.random(PAIRS)
            if shift:
                latency[self.shifted] *= 3.0
            self.engine.ingest_batch(
                self.pairs, np.full(PAIRS, self.now), lost, latency
            )
            self.now += INTERVAL_S
        self.engine.close_elapsed(self.now)


@pytest.mark.parametrize("shift", [False, True], ids=["healthy", "shifted"])
def test_window_close_collect(benchmark, shift):
    wave = Wave()
    verdicts = benchmark.pedantic(
        wave.engine.collect,
        setup=lambda: wave.close(shift),
        rounds=5, iterations=1,
    )
    alarmed = {v.pair for v in verdicts if v.anomaly is not None}
    expected = {
        pair for pair, hit in zip(wave.pairs, wave.shifted) if hit
    } if shift else set()
    assert alarmed == expected
    assert len(verdicts) == len(expected)
    benchmark.extra_info["pairs"] = PAIRS
    benchmark.extra_info["alarms"] = len(alarmed)
