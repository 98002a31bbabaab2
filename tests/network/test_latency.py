"""Tests for the latency model and transient congestion."""

import numpy as np
import pytest

from repro.analysis.stats import lognormal_goodness
from repro.network.latency import LatencyModel, TransientCongestion


@pytest.fixture
def rng():
    return np.random.default_rng(99)


def rtts(model, rng, n, num_links=2, num_switches=1, **extras):
    """``n`` RTT samples from fresh uniforms."""
    return model.rtt_from_uniforms(
        rng.random(n), rng.random(n), num_links, num_switches, **extras
    )


def spikes(congestion, rng, n):
    """``n`` congestion spikes from fresh uniforms."""
    return congestion.spikes_from_uniforms(rng.random(n), rng.random(n))


class TestLatencyModel:
    def test_healthy_intra_segment_rtt_under_20us(self, rng):
        model = LatencyModel()
        assert rtts(model, rng, 500).max() < 20.0

    def test_cross_segment_rtt_larger_but_bounded(self, rng):
        model = LatencyModel()
        intra = model.base_rtt_us(2, 1)
        inter = model.base_rtt_us(4, 3)
        assert intra < inter < 25.0

    def test_software_path_penalty_dominates(self, rng):
        model = LatencyModel()
        slow = rtts(model, rng, 1, software_path=True)[0]
        fast = rtts(model, rng, 1, software_path=False)[0]
        assert slow > fast + 80.0

    def test_extra_latency_added(self, rng):
        model = LatencyModel()
        base = model.base_rtt_us(2, 1)
        sample = rtts(model, rng, 1, extra_us=100.0)[0]
        assert sample > base + 90.0

    def test_samples_are_lognormal(self, rng):
        model = LatencyModel()
        samples = rtts(model, rng, 2000).tolist()
        # KS p-value high => consistent with log-normal (the paper's
        # long-term modelling assumption).
        assert lognormal_goodness(samples) > 0.01

    def test_lognormal_params_match_base(self):
        model = LatencyModel()
        mu, sigma = model.lognormal_params(2, 1)
        assert np.isclose(np.exp(mu), model.base_rtt_us(2, 1))
        assert sigma == model.sigma

    def test_zero_hop_path_still_costs_host_stacks(self):
        model = LatencyModel()
        assert model.base_rtt_us(0, 0) == pytest.approx(
            4 * model.host_stack_us
        )


class TestTransientCongestion:
    def test_disabled_congestion_adds_nothing(self, rng):
        congestion = TransientCongestion(rate=0.0)
        assert (spikes(congestion, rng, 100) == 0.0).all()

    def test_spike_rate_approximate(self, rng):
        congestion = TransientCongestion(rate=0.1, mean_spike_us=10.0)
        hits = int((spikes(congestion, rng, 5000) > 0).sum())
        assert 300 < hits < 700

    def test_spike_magnitude_positive(self, rng):
        congestion = TransientCongestion(rate=1.0, mean_spike_us=25.0)
        samples = spikes(congestion, rng, 500)
        assert (samples > 0).all()
        assert 15.0 < np.mean(samples) < 35.0
