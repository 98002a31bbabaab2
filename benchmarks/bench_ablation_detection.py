"""Ablation: LOF + log-normal Z-test vs a fixed latency threshold.

Design choice 4 (DESIGN.md): gradual degradation creeps slowly enough
that each 30-second window looks like its recent neighbours — a rolling
short-term baseline absorbs it, and a fixed "alert above X us" threshold
either misses the creep or false-fires on healthy long paths.  The
long-term log-normal Z-test compares against a *frozen* reference, so
the accumulated drift eventually deviates with high significance.
"""

import numpy as np

from conftest import print_table, run_once
from repro.analysis.stats import fit_lognormal, z_test
from repro.core.analyzer import Analyzer
from repro.cluster.identifiers import ContainerId, EndpointId, TaskId
from repro.network.packet import ProbeResult


def test_ablation_gradual_degradation_detection(benchmark):
    rng = np.random.default_rng(55)
    src = EndpointId(ContainerId(TaskId(0), 0), 0)
    dst = EndpointId(ContainerId(TaskId(0), 1), 0)
    base_mu = np.log(16.0)

    def latencies(drift, n=15):
        return list(np.exp(rng.normal(base_mu, 0.05, n)) * drift)

    def experiment():
        # 60 short windows (30 minutes) drifting from 1.0x to 1.5x —
        # under +0.9% per window, invisible window-to-window.
        drifts = np.linspace(1.0, 1.5, 60)
        analyzer = Analyzer()
        threshold_alarms = 0
        fixed_threshold_us = 40.0  # a "2.5x healthy" style static rule
        all_samples = []
        for index, drift in enumerate(drifts):
            window_samples = latencies(drift)
            all_samples.append((index, window_samples))
            for j, latency in enumerate(window_samples):
                analyzer.ingest(ProbeResult(
                    src=src, dst=dst, sent_at=index * 30.0 + j * 2.0,
                    lost=False, latency_us=float(latency),
                ))
            if np.mean(window_samples) > fixed_threshold_us:
                threshold_alarms += 1
        analyzer.flush(len(drifts) * 30.0)
        short_alarms = sum(
            a.detector == "short_term_lof" for a in analyzer.anomalies
        )

        # Long-term detector: reference fit on the first 30-min block,
        # Z-test on the last one.
        reference = fit_lognormal([
            s for i, samples in all_samples[:20] for s in samples
        ])
        drifted = [s for i, samples in all_samples[40:] for s in samples]
        long_term = z_test(reference, drifted)
        return short_alarms, threshold_alarms, long_term

    short_alarms, threshold_alarms, long_term = run_once(
        benchmark, experiment
    )

    print_table(
        "Ablation: detecting a +50% creep over 30 minutes",
        ["detector", "alarms", "verdict"],
        [
            ["short-term LOF (rolling baseline)", short_alarms,
             "absorbed" if short_alarms == 0 else "fired"],
            ["fixed 40 us threshold", threshold_alarms,
             "missed" if threshold_alarms == 0 else "fired"],
            ["long-term log-normal Z-test", 1,
             f"z={long_term.z:.1f}, "
             f"{'ANOMALY' if long_term.anomalous(1e-4) else 'missed'}"],
        ],
    )
    benchmark.extra_info["long_term_z"] = long_term.z

    # The rolling short-term baseline absorbs the creep (each window is
    # within tolerance of its neighbours)...
    assert short_alarms <= 2
    # ...the static threshold never trips (1.5 x 16 us = 24 < 40 us)...
    assert threshold_alarms == 0
    # ...and the frozen-reference Z-test flags it decisively.
    assert long_term.anomalous(1e-4)
    assert long_term.z > 10.0
