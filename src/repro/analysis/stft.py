"""Short-Time Fourier Transform features for traffic burst cycles.

SkeletonHunter converts each RNIC's 1 Hz throughput series into the
frequency domain with STFT (§5.1 of the paper; chosen over wavelet/DFT
for its low cost and time-varying resolution).  Two endpoints at the same
pipeline position produce nearly identical spectrograms; endpoints at
different positions differ in either their dominant micro-burst frequency
or in where that energy sits inside the iteration (the PP phase shift),
both of which the flattened time-frequency feature preserves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import signal as sp_signal

__all__ = [
    "StftConfig",
    "dominant_frequency",
    "feature_matrix",
    "phase_shift_seconds",
    "stft_feature",
]


@dataclass(frozen=True)
class StftConfig:
    """Window parameters for the traffic STFT."""

    sample_rate_hz: float = 1.0
    nperseg: int = 64
    noverlap: int = 32
    log_compress: bool = True

    def __post_init__(self) -> None:
        if self.nperseg < 8:
            raise ValueError("nperseg must be at least 8")
        if not 0 <= self.noverlap < self.nperseg:
            raise ValueError("noverlap must be in [0, nperseg)")


def _spectrogram(rows: Sequence[np.ndarray], config: StftConfig) -> np.ndarray:
    """|STFT| magnitude of equally-long series in one transform,
    shape (series, freq_bins, time_frames)."""
    data = np.asarray(rows, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("series must be one-dimensional")
    if data.shape[1] < config.nperseg:
        raise ValueError(
            f"series of {data.shape[1]} samples is shorter than one STFT "
            f"window ({config.nperseg})"
        )
    _, _, zxx = sp_signal.stft(
        data,
        fs=config.sample_rate_hz,
        nperseg=config.nperseg,
        noverlap=config.noverlap,
        padded=False,
        boundary=None,
        axis=-1,
    )
    return np.abs(zxx)


def _unit_features(
    rows: Sequence[np.ndarray], config: Optional[StftConfig]
) -> np.ndarray:
    """One unit-norm feature row per (equally long) series."""
    config = config if config is not None else StftConfig()
    # Drop the DC row: absolute traffic volume is not a grouping signal.
    mag = _spectrogram(rows, config)[:, 1:, :]
    if config.log_compress:
        mag = np.log1p(mag)
    flat = mag.reshape(len(mag), -1)
    # Row by row: the axis form of the norm sums in another order.
    norms = np.array([np.linalg.norm(row) for row in flat])
    norms[norms == 0] = 1.0
    return flat / norms[:, None]


def stft_feature(
    series: np.ndarray, config: Optional[StftConfig] = None
) -> np.ndarray:
    """A unit-norm feature vector describing a series' burst pattern.

    The flattened (optionally log-compressed) spectrogram keeps both the
    frequency content and its placement in time, then L2-normalizes so
    distances compare burst *shape* rather than absolute volume.
    """
    return _unit_features([series], config)[0]


def feature_matrix(
    series_list: Sequence[np.ndarray], config: Optional[StftConfig] = None
) -> np.ndarray:
    """Stack features of equally-long series into an (n, d) matrix."""
    if not series_list:
        raise ValueError("need at least one series")
    if len({np.shape(series) for series in series_list}) == 1:
        return _unit_features(series_list, config)
    # Ragged lengths: legal as long as the features still line up.
    features = [stft_feature(s, config) for s in series_list]
    dims = {f.shape[0] for f in features}
    if len(dims) != 1:
        raise ValueError("all series must produce equally-sized features")
    return np.vstack(features)


def dominant_frequency(
    series: np.ndarray, config: Optional[StftConfig] = None
) -> float:
    """The strongest non-DC frequency (Hz) in a series' average spectrum."""
    config = config if config is not None else StftConfig()
    mag = _spectrogram([series], config)[0]
    mean_spectrum = mag.mean(axis=1)
    freqs = np.fft.rfftfreq(config.nperseg, d=1.0 / config.sample_rate_hz)
    # Ignore DC and the near-DC bin where the iteration envelope dominates.
    if len(mean_spectrum) < 3:
        return float(freqs[int(np.argmax(mean_spectrum))])
    index = int(np.argmax(mean_spectrum[2:])) + 2
    return float(freqs[index])


def phase_shift_seconds(
    reference: np.ndarray,
    shifted: np.ndarray,
    sample_rate_hz: float = 1.0,
    max_shift_s: float = 30.0,
) -> float:
    """Circular cross-correlation lag of ``shifted`` behind ``reference``.

    Used to order pipeline stages: the stage-k series is a time-shifted
    copy of the stage-0 series, so the argmax of the circular correlation
    recovers ``k * stage_delay`` (§5.1: "the PP in the first layer always
    experiences the same traffic burst earlier").
    """
    a = np.asarray(reference, dtype=np.float64)
    b = np.asarray(shifted, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("series must be equally long")
    a = a - a.mean()
    b = b - b.mean()
    # corr[k] peaks at k = d when ``shifted`` lags ``reference`` by d.
    spectrum = np.conj(np.fft.rfft(a)) * np.fft.rfft(b)
    corr = np.fft.irfft(spectrum, n=len(a))
    max_lag = int(max_shift_s * sample_rate_hz)
    lags = np.arange(len(a))
    window = lags <= max_lag
    best = int(lags[window][np.argmax(corr[window])])
    return best / sample_rate_hz
