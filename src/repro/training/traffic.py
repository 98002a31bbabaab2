"""Per-RNIC throughput time series with training burst cycles.

Model training traffic is periodic and seasonal (§3.2 of the paper,
Figure 7): every ~30 s iteration shows a quiet compute phase, pipeline
point-to-point micro-bursts, and a large gradient all-reduce burst at the
iteration end, with 1 Hz production-granularity sampling flattening the
line-rate peaks to ~15 Gbps averages.

The generator encodes the two observations SkeletonHunter's inference
relies on (§5.1):

* Endpoints at the **same pipeline position** across DP replicas emit
  near-identical series — same micro-burst frequency, same phase — so
  their STFT features cluster together.
* Different **PP stages** are time-shifted copies: stage *k* starts its
  activity window ``k * stage_delay`` later, which lets the inference
  order pipeline levels by cross-correlation lag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.cluster.identifiers import EndpointId
from repro.sim.rng import RngRegistry
from repro.training.workload import TrainingWorkload

__all__ = ["TrafficGenerator", "TrafficModel"]


@dataclass(frozen=True)
class TrafficModel:
    """Parameters of the burst-cycle signal model."""

    iteration_period_s: float = 30.0
    sample_rate_hz: float = 1.0
    peak_gbps: float = 15.0
    activity_window_s: float = 12.0   # span of pipeline micro-bursts
    stage_delay_s: float = 2.0        # PP stage phase shift
    allreduce_duration_s: float = 5.0
    allreduce_gbps: float = 14.0
    # MoE expert parallelism adds an all-to-all token-exchange burst
    # right after the pipeline activity window — the extra traffic
    # phase that lets inference tell MoE tasks from dense ones.
    ep_alltoall_duration_s: float = 4.0
    ep_alltoall_gbps: float = 9.0
    noise_gbps: float = 0.25
    base_frequency_hz: float = 0.10   # lowest micro-burst frequency
    frequency_step_hz: float = 0.03
    frequency_slots: int = 12         # distinct micro-burst frequencies

    def position_frequency(self, position_index: int) -> float:
        """Micro-burst frequency for a pipeline-position index.

        Positions cycle through a grid of sub-Nyquist frequencies; the
        envelope phase (PP shift) disambiguates positions that share a
        frequency slot.
        """
        slot = position_index % self.frequency_slots
        return self.base_frequency_hz + slot * self.frequency_step_hz

    def position_duty(self, position_index: int) -> float:
        """Micro-burst sharpness exponent, a second separating feature."""
        return 1.0 + 2.0 * ((position_index // self.frequency_slots) % 3)


class TrafficGenerator:
    """Produces throughput series for every endpoint of a workload."""

    def __init__(
        self,
        workload: TrainingWorkload,
        model: Optional[TrafficModel] = None,
        rng: Optional[RngRegistry] = None,
    ) -> None:
        self.workload = workload
        self.model = model or TrafficModel(
            iteration_period_s=workload.iteration_period_s
        )
        registry = rng or RngRegistry(0)
        self._rng = registry.stream(f"traffic:{workload.task.id}")

    # ------------------------------------------------------------------
    # Signal model
    # ------------------------------------------------------------------

    def position_index(self, endpoint: EndpointId) -> int:
        """The pipeline-position index (same across DP replicas)."""
        rank = self.workload.rank_of(endpoint)
        pos = self.workload.config.position(rank)
        return pos.pp_rank * self.workload.config.tp + pos.tp_rank

    def series(
        self,
        endpoint: EndpointId,
        duration_s: float,
        start_s: float = 0.0,
        with_noise: bool = True,
    ) -> np.ndarray:
        """Throughput samples (Gbps) at the model's sample rate."""
        model = self.model
        num = int(round(duration_s * model.sample_rate_hz))
        t = start_s + np.arange(num) / model.sample_rate_hz
        signal = self._shape(self.position_index(endpoint), t)
        if with_noise and model.noise_gbps > 0:
            noise = self._rng.normal(0.0, model.noise_gbps, size=num)
            signal = np.maximum(signal + noise, 0.0)
        return signal.astype(np.float64)

    def all_series(
        self, duration_s: float, with_noise: bool = True
    ) -> Dict[EndpointId, np.ndarray]:
        """Series for every endpoint of the workload, in rank order.

        Bit for bit what :meth:`series` returns endpoint by endpoint,
        and the stream ends in the same state: one noise-free shape per
        pipeline position, and the task's noise drawn as one
        ``(endpoints, samples)`` block — the same draws in the same
        order — that the shapes are added to in place.
        """
        model = self.model
        num = int(round(duration_s * model.sample_rate_hz))
        t = np.arange(num) / model.sample_rate_hz
        endpoints = self.workload.endpoints()
        indices = [self.position_index(endpoint) for endpoint in endpoints]
        shapes = {index: self._shape(index, t) for index in set(indices)}
        if with_noise and model.noise_gbps > 0:
            block = self._rng.normal(
                0.0, model.noise_gbps, size=(len(endpoints), num)
            )
            for row, index in zip(block, indices):
                row += shapes[index]
            np.maximum(block, 0.0, out=block)
        else:
            block = np.stack([shapes[index] for index in indices])
        return dict(zip(endpoints, block))

    def _shape(self, index: int, t: np.ndarray) -> np.ndarray:
        """Noise-free throughput of position ``index`` at times ``t``."""
        model = self.model
        config = self.workload.config
        freq = model.position_frequency(index)
        duty = model.position_duty(index)

        phase_in_iter = np.mod(t, model.iteration_period_s)

        # Pipeline micro-bursts inside the stage's activity window.
        window_start = (index // config.tp) * model.stage_delay_s
        in_window = (
            (phase_in_iter >= window_start)
            & (phase_in_iter < window_start + model.activity_window_s)
        )
        carrier = 0.5 * (1.0 + np.cos(2.0 * np.pi * freq * t))
        # A pedestal keeps the stage visibly active between micro-burst
        # peaks (pipeline stages stream activations continuously while
        # their window is open); the oscillation on top carries the
        # position's frequency signature.
        micro = model.peak_gbps * in_window * (
            0.35 + 0.65 * np.power(carrier, duty)
        )

        # Gradient all-reduce burst at the end of each iteration,
        # present only when the workload actually data-parallelizes.
        signal = micro
        if config.dp > 1:
            ar_start = model.iteration_period_s - model.allreduce_duration_s
            in_allreduce = phase_in_iter >= ar_start
            signal = signal + model.allreduce_gbps * in_allreduce

        # MoE token all-to-all: a second burst phase shortly after the
        # stage's activity window (dispatch + combine of routed tokens).
        if config.ep > 1:
            a2a_start = window_start + model.activity_window_s + 2.0
            in_alltoall = (
                (phase_in_iter >= a2a_start)
                & (phase_in_iter < a2a_start + model.ep_alltoall_duration_s)
            )
            signal = signal + model.ep_alltoall_gbps * in_alltoall
        return signal

    def expected_groups(self) -> Dict[int, list]:
        """Ground truth: position index -> endpoints at that position.

        Endpoints sharing a position index are the DP-replica peers that
        skeleton inference should cluster together.
        """
        groups: Dict[int, list] = {}
        for endpoint in self.workload.endpoints():
            groups.setdefault(self.position_index(endpoint), []).append(
                endpoint
            )
        return groups
