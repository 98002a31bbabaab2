"""The round-trip latency model.

Healthy RoCE probes complete in well under 20 µs (§1 of the paper; the
Figure-18 case study shows a stable ~16 µs before the failure).  We model
the RTT as a per-hop budget with multiplicative log-normal noise — the
paper's long-term detector explicitly relies on healthy pair latency
being log-normally distributed (§5.2), so the substrate generates exactly
that family.

Transient congestion adds occasional latency spikes that are *not*
failures; the short-term detector must ride through them (they are the
source of detection false positives the precision metric charges for).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

__all__ = ["LatencyModel", "TransientCongestion"]

#: Uniform draws are clamped away from 0/1 before inverse-CDF transforms
#: so a (probability ~2^-53) endpoint draw cannot produce an infinity.
_U_EPS = 1e-300
_U_CAP = 1.0 - 1e-16


def _lognormal_from_uniform(
    u: np.ndarray, mu: float, sigma: float
) -> np.ndarray:
    """Log-normal samples via the inverse normal CDF.

    Sampling through plain uniforms (instead of
    ``Generator.lognormal``'s ziggurat normals) lets every probe's noise
    be a column of its keyed uniform block
    (:class:`~repro.network.draws.PairwiseDrawSource`), transformed for
    a whole round at once.
    """
    clipped = np.clip(u, _U_EPS, _U_CAP)
    return np.exp(mu + sigma * ndtri(clipped))


@dataclass
class LatencyModel:
    """Per-hop RTT budget plus log-normal measurement noise.

    Parameters are one-way per-traversal costs in microseconds; the RTT
    doubles them.  ``sigma`` is the log-space standard deviation of the
    multiplicative noise (a few percent in a healthy fabric).
    """

    host_stack_us: float = 1.2      # veth + OVS + PCIe per host side
    per_link_us: float = 0.75       # serialization + propagation per link
    per_switch_us: float = 1.0      # switching latency per switch
    software_path_penalty_us: float = 104.0  # slow-path (Figure 18: ~120 µs)
    sigma: float = 0.04

    def base_rtt_us(self, num_links: int, num_switches: int) -> float:
        """Median healthy RTT for a path shape (links, switches)."""
        one_way = (
            2 * self.host_stack_us
            + num_links * self.per_link_us
            + num_switches * self.per_switch_us
        )
        return 2.0 * one_way

    def rtt_from_uniforms(
        self,
        u_base: np.ndarray,
        u_soft: np.ndarray,
        num_links,
        num_switches,
        extra_us=0.0,
        software_path=False,
    ) -> np.ndarray:
        """Vectorized RTT sampling from pre-drawn uniforms.

        ``num_links``/``num_switches``/``extra_us``/``software_path``
        may be scalars or arrays broadcastable against the uniforms.
        """
        num_links = np.asarray(num_links)
        num_switches = np.asarray(num_switches)
        one_way = (
            2 * self.host_stack_us
            + num_links * self.per_link_us
            + num_switches * self.per_switch_us
        )
        base = 2.0 * one_way
        noisy = base * _lognormal_from_uniform(u_base, 0.0, self.sigma)
        penalty = self.software_path_penalty_us * _lognormal_from_uniform(
            u_soft, 0.0, self.sigma
        )
        noisy = noisy + np.where(np.asarray(software_path), penalty, 0.0)
        return noisy + extra_us

    def lognormal_params(
        self, num_links: int, num_switches: int
    ) -> "tuple[float, float]":
        """(mu, sigma) of ln(RTT) for a healthy path of this shape."""
        return math.log(self.base_rtt_us(num_links, num_switches)), self.sigma


@dataclass
class TransientCongestion:
    """Benign short latency spikes from resource contention.

    Each probe independently hits a spike with probability ``rate``; the
    spike magnitude is exponential with mean ``mean_spike_us``.  These
    mimic the transient congestion the paper's analyzer must filter out
    (§5.2: "a sudden high latency can be caused by transient congestion").
    """

    rate: float = 0.002
    mean_spike_us: float = 12.0

    def spikes_from_uniforms(
        self, u_gate: np.ndarray, u_mag: np.ndarray
    ) -> np.ndarray:
        """Vectorized congestion spikes from pre-drawn uniforms.

        A probe spikes when its gate uniform lands below ``rate``; the
        magnitude comes from the inverse exponential CDF of the second
        uniform.
        """
        clipped = np.clip(u_mag, 0.0, _U_CAP)
        magnitude = -self.mean_spike_us * np.log1p(-clipped)
        return np.where(u_gate < self.rate, magnitude, 0.0)
