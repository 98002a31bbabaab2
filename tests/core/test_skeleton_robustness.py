"""Robustness of skeleton inference across seeds and noise levels."""

import numpy as np
import pytest

from repro.chaos.faults import MonitorFaultInjector, MonitorIssue
from repro.core.skeleton import (
    MIN_COVERAGE,
    SkeletonInference,
    SkeletonInferenceError,
)
from repro.sim.rng import RngRegistry
from repro.training.collectives import traffic_edges
from repro.training.parallelism import ParallelismConfig
from repro.training.traffic import TrafficGenerator, TrafficModel
from repro.training.workload import TrainingWorkload


def infer_once(running_task, seed, noise_gbps=0.25, duration=600.0):
    config = ParallelismConfig(4, 2, 2)
    workload = TrainingWorkload(running_task, config)
    generator = TrafficGenerator(
        workload,
        model=TrafficModel(noise_gbps=noise_gbps),
        rng=RngRegistry(seed),
    )
    series = generator.all_series(duration)
    skeleton = SkeletonInference().infer(
        series, lambda e: running_task.containers[e.container].host
    )
    return workload, skeleton


class TestSeedRobustness:
    @pytest.mark.parametrize("seed", [1, 17, 42, 1234, 98765])
    def test_exact_recovery_across_seeds(self, running_task, seed):
        workload, skeleton = infer_once(running_task, seed)
        assert skeleton.dp == workload.config.dp
        assert skeleton.num_stages == workload.config.pp
        assert skeleton.coverage(traffic_edges(workload)) == 1.0


class TestNoiseRobustness:
    @pytest.mark.parametrize("noise", [0.0, 0.5, 1.0, 1.25])
    def test_recovery_under_increasing_noise(self, running_task, noise):
        """Noise up to ~8% of the burst peak leaves inference exact
        (production 1 Hz throughput counters sit well below that)."""
        workload, skeleton = infer_once(
            running_task, seed=3, noise_gbps=noise
        )
        assert skeleton.dp == workload.config.dp
        assert skeleton.coverage(traffic_edges(workload)) == 1.0

    def test_short_observation_window_still_works(self, running_task):
        """Five iterations of data (150 s) suffice for a small task."""
        workload, skeleton = infer_once(
            running_task, seed=5, duration=150.0
        )
        assert skeleton.dp == workload.config.dp
        assert skeleton.coverage(traffic_edges(workload)) == 1.0

class TestSanitize:
    """Gapped/corrupt telemetry: repair what is recoverable, quarantine
    the rest, and never let the clean path pay for it."""

    def test_clean_series_pass_through_by_reference(self):
        inference = SkeletonInference()
        series = {"e": np.ones(60, dtype=np.float64)}
        usable, quarantined = inference._sanitize_series(series)
        assert usable["e"] is series["e"]
        assert quarantined == []

    def test_short_series_is_quarantined(self):
        inference = SkeletonInference(iteration_period_s=30.0)
        usable, quarantined = inference._sanitize_series(
            {"short": np.ones(29), "ok": np.ones(30)}
        )
        assert quarantined == ["short"]
        assert list(usable) == ["ok"]

    def test_low_coverage_is_quarantined(self):
        inference = SkeletonInference()
        gappy = np.ones(60)
        gappy[: 30] = np.nan  # 50% coverage < MIN_COVERAGE
        assert MIN_COVERAGE > 0.5
        usable, quarantined = inference._sanitize_series(
            {"gappy": gappy}
        )
        assert quarantined == ["gappy"]
        assert usable == {}

    def test_repair_fills_gaps_with_phase_medians(self):
        inference = SkeletonInference(iteration_period_s=4.0)
        # Three iterations of the pattern [0, 10, 10, 0]; knock out
        # one burst sample and one idle sample.
        data = np.array([0, 10, 10, 0] * 3, dtype=np.float64)
        data[5] = np.nan   # phase 1 (burst)
        data[11] = np.nan  # phase 3 (idle)
        usable, quarantined = inference._sanitize_series({"e": data})
        assert quarantined == []
        repaired = usable["e"]
        assert repaired[5] == 10.0   # burst edge preserved, not smeared
        assert repaired[11] == 0.0
        # Untouched samples are unchanged.
        keep = np.ones(12, dtype=bool)
        keep[[5, 11]] = False
        assert np.array_equal(
            repaired[keep], np.array([0, 10, 10, 0] * 3)[keep]
        )

    def test_fully_missing_phase_falls_back_to_interpolation(self):
        inference = SkeletonInference(iteration_period_s=4.0)
        data = np.array([0.0, 4.0, 8.0, 12.0] * 3)
        data[1::4] = np.nan  # phase 1 gone in every iteration
        usable, _ = inference._sanitize_series({"e": data})
        assert np.all(np.isfinite(usable["e"]))
        # Index 5's nearest finite neighbours are 0 (index 4) and 8
        # (index 6): linear interpolation lands midway.
        assert usable["e"][5] == pytest.approx(4.0)

    def test_too_few_usable_endpoints_raises_inference_error(self):
        inference = SkeletonInference()
        series = {
            "a": np.full(60, np.nan),
            "b": np.ones(60),
        }
        with pytest.raises(SkeletonInferenceError):
            inference.infer(series, lambda e: "host")
        # Backward compatible: still a ValueError to old callers.
        with pytest.raises(ValueError):
            inference.infer(series, lambda e: "host")


class TestChaosRobustness:
    def test_ten_percent_telemetry_loss_keeps_inference_exact(
        self, running_task
    ):
        """The degradation-gate regression in unit form: 10% dropped
        samples (repaired phase-aware) must not collapse the stage
        partition or lose skeleton edges."""
        clean = infer_once(running_task, seed=9)[1]
        injector = MonitorFaultInjector(seed=9)
        injector.inject_issue(
            MonitorIssue.TELEMETRY_DROP, start=0.0, rate=0.10,
            fault_id=0,
        )
        config = ParallelismConfig(4, 2, 2)
        generator = TrafficGenerator(
            TrainingWorkload(running_task, config),
            model=TrafficModel(noise_gbps=0.25),
            rng=RngRegistry(9),
        )
        series = injector.corrupt_series(
            generator.all_series(600.0), at=0.0
        )
        degraded = SkeletonInference().infer(
            series, lambda e: running_task.containers[e.container].host
        )
        assert degraded.dp == clean.dp
        assert degraded.num_stages == clean.num_stages
        assert degraded.edges == clean.edges
        assert degraded.quarantined == []

    def test_one_dead_exporter_is_quarantined_not_fatal(
        self, running_task
    ):
        clean = infer_once(running_task, seed=4)[1]
        config = ParallelismConfig(4, 2, 2)
        generator = TrafficGenerator(
            TrainingWorkload(running_task, config),
            model=TrafficModel(noise_gbps=0.25),
            rng=RngRegistry(4),
        )
        series = generator.all_series(600.0)
        victim = sorted(series)[0]
        series[victim] = np.full_like(series[victim], np.nan)
        skeleton = SkeletonInference().infer(
            series, lambda e: running_task.containers[e.container].host
        )
        assert skeleton.quarantined == [victim]
        assert all(victim not in group for group in skeleton.groups)


class TestNoiseExtremes:
    @pytest.mark.parametrize("noise", [2.0, 8.0])
    def test_extreme_noise_degrades_gracefully(self, running_task, noise):
        """Past ~10% of peak the inference may err, but it must still
        return a structurally valid skeleton (the fidelity checker is
        the guard rail, not a crash)."""
        workload, skeleton = infer_once(
            running_task, seed=7, noise_gbps=noise
        )
        assert skeleton.group_count * skeleton.dp == workload.num_ranks
        for edge in skeleton.edges:
            a, b = sorted(edge)
            assert a.container != b.container
