"""Tests for STFT features and phase-shift estimation."""

import numpy as np
import pytest
from scipy import signal as sp_signal

from repro.analysis.stft import (
    StftConfig,
    dominant_frequency,
    feature_matrix,
    phase_shift_seconds,
    stft_feature,
)


def tone(freq, n=600, rate=1.0, amplitude=5.0):
    t = np.arange(n) / rate
    return amplitude * (1.0 + np.cos(2 * np.pi * freq * t))


class TestStftFeature:
    def test_unit_norm(self):
        feature = stft_feature(tone(0.1))
        assert np.linalg.norm(feature) == pytest.approx(1.0)

    def test_identical_series_identical_features(self):
        assert np.allclose(stft_feature(tone(0.1)), stft_feature(tone(0.1)))

    def test_different_frequencies_distant(self):
        a = stft_feature(tone(0.1))
        b = stft_feature(tone(0.3))
        same = stft_feature(tone(0.1))
        assert np.linalg.norm(a - b) > 5 * np.linalg.norm(a - same)

    def test_amplitude_invariance(self):
        a = stft_feature(tone(0.2, amplitude=1.0))
        b = stft_feature(tone(0.2, amplitude=10.0))
        assert np.linalg.norm(a - b) < 0.25

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            stft_feature(np.ones(10), StftConfig(nperseg=64))

    def test_2d_input_rejected(self):
        with pytest.raises(ValueError):
            stft_feature(np.ones((10, 10)))

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            StftConfig(nperseg=4)
        with pytest.raises(ValueError):
            StftConfig(nperseg=64, noverlap=64)


class TestFeatureMatrix:
    def test_stacks_rows(self):
        matrix = feature_matrix([tone(0.1), tone(0.2), tone(0.3)])
        assert matrix.shape[0] == 3

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            feature_matrix([tone(0.1, n=600), tone(0.1, n=300)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            feature_matrix([])


def one_series_at_a_time(series, config):
    """``stft_feature`` as it was before the batched transform (commit
    87213bb): one ``scipy.signal.stft`` call and one norm per series."""
    _, _, zxx = sp_signal.stft(
        np.asarray(series, dtype=np.float64),
        fs=config.sample_rate_hz,
        nperseg=config.nperseg,
        noverlap=config.noverlap,
        padded=False,
        boundary=None,
    )
    mag = np.abs(zxx)[1:, :]
    if config.log_compress:
        mag = np.log1p(mag)
    flat = mag.ravel()
    norm = np.linalg.norm(flat)
    if norm == 0:
        return flat
    return flat / norm


class TestBatchedFeatureMatrix:
    """One STFT over the (rnics, samples) matrix gives, bit for bit, the
    rows the per-series loop gave."""

    @staticmethod
    def series(n=600, rows=12):
        rng = np.random.default_rng(5)
        return [
            tone(0.05 + 0.03 * i, n=n) + rng.normal(0.0, 0.3, n)
            for i in range(rows)
        ]

    @pytest.mark.parametrize("log_compress", [True, False])
    def test_equals_stacked_single_features(self, log_compress):
        config = StftConfig(log_compress=log_compress)
        series = self.series()
        series[3] = np.zeros(600)  # zero norm: the row stays all-zero
        matrix = feature_matrix(series, config)
        stacked = np.vstack([stft_feature(s, config) for s in series])
        assert np.array_equal(matrix, stacked)
        assert np.array_equal(matrix, np.vstack([
            one_series_at_a_time(s, config) for s in series
        ]))
        assert not matrix[3].any()
        assert np.allclose(
            np.linalg.norm(np.delete(matrix, 3, axis=0), axis=1), 1.0
        )

    def test_default_config_and_lists_of_floats(self):
        series = [list(s) for s in self.series(rows=3)]
        assert np.array_equal(
            feature_matrix(series),
            np.vstack([stft_feature(s) for s in series]),
        )

    def test_ragged_lengths_with_equal_feature_size_fall_back(self):
        # 600 and 605 samples both cut into 17 frames of 64/32.
        series = self.series(rows=4) + self.series(n=605, rows=2)
        matrix = feature_matrix(series)
        assert matrix.shape[0] == 6
        assert np.array_equal(
            matrix, np.vstack([stft_feature(s) for s in series])
        )

    def test_too_short_series_raise_the_single_series_error(self):
        short = [np.ones(10), np.ones(10)]
        with pytest.raises(ValueError) as single:
            stft_feature(short[0])
        with pytest.raises(ValueError) as batched:
            feature_matrix(short)
        assert str(batched.value) == str(single.value)
        assert "shorter than one STFT window (64)" in str(batched.value)

    def test_two_dimensional_rows_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            feature_matrix([np.ones((2, 600)), np.ones((2, 600))])


class TestDominantFrequency:
    def test_recovers_tone_frequency(self):
        config = StftConfig(nperseg=64)
        freq = dominant_frequency(tone(0.25, n=640), config)
        assert freq == pytest.approx(0.25, abs=1.0 / 64)


class TestPhaseShift:
    def test_zero_shift(self):
        series = tone(0.1)
        assert phase_shift_seconds(series, series) == 0.0

    def test_recovers_known_shift(self):
        base = np.tile(
            np.concatenate([np.ones(5) * 10, np.zeros(25)]), 20
        )
        shifted = np.roll(base, 4)
        assert phase_shift_seconds(base, shifted, max_shift_s=10) == 4.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            phase_shift_seconds(np.ones(10), np.ones(20))
