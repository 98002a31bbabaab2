"""Tests for burst-cycle traffic generation."""

import numpy as np
import pytest

from repro.sim.rng import RngRegistry
from repro.training.parallelism import ParallelismConfig
from repro.training.traffic import TrafficGenerator, TrafficModel
from repro.training.workload import TrainingWorkload


@pytest.fixture
def generator(running_task):
    workload = TrainingWorkload(running_task, ParallelismConfig(4, 2, 2))
    return TrafficGenerator(workload, rng=RngRegistry(5))


class TestSignalShape:
    def test_sample_count(self, generator):
        series = generator.series(generator.workload.endpoint_of(0), 300.0)
        assert len(series) == 300

    def test_nonnegative_throughput(self, generator):
        series = generator.series(generator.workload.endpoint_of(0), 300.0)
        assert np.all(series >= 0.0)

    def test_peak_near_model_peak(self, generator):
        series = generator.series(generator.workload.endpoint_of(0), 600.0)
        assert 12.0 < series.max() < 18.0

    def test_quiet_phase_exists(self, generator):
        series = generator.series(
            generator.workload.endpoint_of(0), 600.0, with_noise=False
        )
        assert (series < 1.0).mean() > 0.2

    def test_periodicity_at_iteration_boundary(self, generator):
        endpoint = generator.workload.endpoint_of(0)
        series = generator.series(endpoint, 600.0, with_noise=False)
        period = int(generator.model.iteration_period_s)
        folded = series[:600 // period * period].reshape(-1, period)
        # Every iteration is an identical copy up to carrier phase noise.
        spread = folded.std(axis=0).mean()
        assert spread < folded.mean() * 2

    def test_noise_changes_series_but_not_shape(self, generator):
        endpoint = generator.workload.endpoint_of(0)
        clean = generator.series(endpoint, 300.0, with_noise=False)
        noisy = generator.series(endpoint, 300.0, with_noise=True)
        assert not np.allclose(clean, noisy)
        assert abs(clean.mean() - noisy.mean()) < 1.0


class TestPositionStructure:
    def test_same_position_series_nearly_identical(self, generator):
        config = generator.workload.config
        a = generator.workload.endpoint_of(config.rank_of(1, 1, 0))
        b = generator.workload.endpoint_of(config.rank_of(1, 1, 1))
        sa = generator.series(a, 600.0, with_noise=False)
        sb = generator.series(b, 600.0, with_noise=False)
        assert np.corrcoef(sa, sb)[0, 1] > 0.999

    def test_different_positions_differ(self, generator):
        config = generator.workload.config
        a = generator.workload.endpoint_of(config.rank_of(0, 0, 0))
        b = generator.workload.endpoint_of(config.rank_of(1, 0, 0))
        sa = generator.series(a, 600.0, with_noise=False)
        sb = generator.series(b, 600.0, with_noise=False)
        assert np.corrcoef(sa, sb)[0, 1] < 0.99

    def test_later_pipeline_stage_starts_later(self, generator):
        config = generator.workload.config
        first = generator.workload.endpoint_of(config.rank_of(0, 0, 0))
        second = generator.workload.endpoint_of(config.rank_of(0, 1, 0))
        s0 = generator.series(first, 30.0, with_noise=False)
        s1 = generator.series(second, 30.0, with_noise=False)
        onset0 = int(np.flatnonzero(s0 > 1.0)[0])
        onset1 = int(np.flatnonzero(s1 > 1.0)[0])
        assert onset1 > onset0

    def test_expected_groups_partition_endpoints(self, generator):
        groups = generator.expected_groups()
        members = [e for group in groups.values() for e in group]
        assert sorted(members) == sorted(generator.workload.endpoints())
        sizes = {len(group) for group in groups.values()}
        assert sizes == {generator.workload.config.dp}

    def test_allreduce_burst_absent_without_dp(self, running_task):
        workload = TrainingWorkload(running_task, ParallelismConfig(4, 4, 1))
        generator = TrafficGenerator(workload, rng=RngRegistry(5))
        series = generator.series(
            workload.endpoint_of(0), 30.0, with_noise=False
        )
        tail = series[-3:]  # all-reduce window of the iteration
        assert np.all(tail < 1.0)


class TestAllSeries:
    @pytest.mark.parametrize("config, with_noise", [
        (ParallelismConfig(4, 2, 2), True),
        (ParallelismConfig(4, 2, 2, ep=2), True),
        (ParallelismConfig(4, 4, 1), True),
        (ParallelismConfig(4, 2, 2), False),
    ], ids=["dense", "moe", "dp1", "noise-free"])
    def test_all_series_is_the_per_endpoint_loop(
        self, running_task, config, with_noise
    ):
        """One shape per position and one noise block are the loop's
        series bit for bit, and leave the stream where the loop does."""
        workload = TrainingWorkload(running_task, config)
        batched = TrafficGenerator(workload, rng=RngRegistry(5))
        looped = TrafficGenerator(workload, rng=RngRegistry(5))
        got = batched.all_series(300.0, with_noise=with_noise)
        want = {
            endpoint: looped.series(endpoint, 300.0, with_noise=with_noise)
            for endpoint in workload.endpoints()
        }
        assert list(got) == list(want)
        for endpoint, series in want.items():
            assert got[endpoint].dtype == series.dtype
            assert got[endpoint].tobytes() == series.tobytes(), endpoint
        endpoint = workload.endpoint_of(0)
        assert (
            batched.series(endpoint, 30.0).tobytes()
            == looped.series(endpoint, 30.0).tobytes()
        )


class TestModelParameters:
    def test_position_frequencies_stay_sub_nyquist(self):
        model = TrafficModel()
        for index in range(64):
            assert model.position_frequency(index) < 0.5

    def test_frequency_slots_cycle(self):
        model = TrafficModel(frequency_slots=4)
        assert model.position_frequency(0) == model.position_frequency(4)
        assert model.position_duty(0) != model.position_duty(4)


class TestExpertParallelTraffic:
    def test_moe_adds_a_third_burst_phase(self, running_task):
        dense = TrainingWorkload(running_task, ParallelismConfig(4, 2, 2))
        moe = TrainingWorkload(
            running_task, ParallelismConfig(4, 2, 2, ep=2)
        )
        gen_dense = TrafficGenerator(dense, rng=RngRegistry(5))
        gen_moe = TrafficGenerator(moe, rng=RngRegistry(5))
        endpoint = dense.endpoint_of(0)
        series_dense = gen_dense.series(endpoint, 30.0, with_noise=False)
        series_moe = gen_moe.series(endpoint, 30.0, with_noise=False)
        # The token all-to-all slot (just after the activity window) is
        # quiet for the dense task and busy for the MoE task.
        a2a_slot = slice(15, 18)
        assert np.all(series_dense[a2a_slot] < 1.0)
        assert np.all(series_moe[a2a_slot] > 5.0)

    def test_moe_burst_follows_stage_window(self, running_task):
        moe = TrainingWorkload(
            running_task, ParallelismConfig(4, 2, 2, ep=2)
        )
        generator = TrafficGenerator(moe, rng=RngRegistry(5))
        late_stage = moe.endpoint_of(moe.config.rank_of(0, 1, 0))
        series = generator.series(late_stage, 30.0, with_noise=False)
        # Stage 1 opens at t=2, so its all-to-all slot shifts by 2 s.
        assert np.all(series[17:20] > 5.0)

    def test_moe_total_volume_exceeds_dense(self, running_task):
        dense = TrainingWorkload(running_task, ParallelismConfig(4, 2, 2))
        moe = TrainingWorkload(
            running_task, ParallelismConfig(4, 2, 2, ep=2)
        )
        endpoint = dense.endpoint_of(0)
        dense_sum = TrafficGenerator(
            dense, rng=RngRegistry(5)
        ).series(endpoint, 300.0, with_noise=False).sum()
        moe_sum = TrafficGenerator(
            moe, rng=RngRegistry(5)
        ).series(endpoint, 300.0, with_noise=False).sum()
        assert moe_sum > dense_sum
