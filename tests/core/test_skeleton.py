"""Tests for traffic skeleton inference."""

import numpy as np
import pytest

from repro.core.skeleton import SkeletonInference
from repro.sim.rng import RngRegistry
from repro.training.collectives import traffic_edges
from repro.training.parallelism import ParallelismConfig
from repro.training.traffic import TrafficGenerator
from repro.training.workload import TrainingWorkload


def infer_for(running_task, config, seed=11, duration=600.0, **kwargs):
    workload = TrainingWorkload(running_task, config)
    generator = TrafficGenerator(workload, rng=RngRegistry(seed))
    series = generator.all_series(duration)

    def host_of(endpoint):
        return running_task.containers[endpoint.container].host

    skeleton = SkeletonInference(**kwargs).infer(series, host_of)
    return workload, generator, skeleton


class TestInference:
    def test_recovers_dp_and_group_count(self, running_task):
        _, _, skeleton = infer_for(running_task, ParallelismConfig(4, 2, 2))
        assert skeleton.dp == 2
        assert skeleton.group_count == 8

    def test_recovers_stage_count(self, running_task):
        _, _, skeleton = infer_for(running_task, ParallelismConfig(4, 2, 2))
        assert skeleton.num_stages == 2

    def test_groups_match_positions_exactly(self, running_task):
        _, generator, skeleton = infer_for(
            running_task, ParallelismConfig(4, 2, 2)
        )
        truth = {
            frozenset(group)
            for group in generator.expected_groups().values()
        }
        found = {frozenset(group) for group in skeleton.groups}
        assert truth == found

    def test_full_edge_coverage(self, running_task):
        workload, _, skeleton = infer_for(
            running_task, ParallelismConfig(4, 2, 2)
        )
        true_edges = traffic_edges(workload)
        assert skeleton.coverage(true_edges) == 1.0
        assert skeleton.excess(true_edges) == 0

    def test_pipeline_free_config(self, running_task):
        workload, _, skeleton = infer_for(
            running_task, ParallelismConfig(4, 1, 4)
        )
        assert skeleton.dp == 4
        assert skeleton.num_stages == 1
        assert skeleton.coverage(traffic_edges(workload)) == 1.0

    def test_deep_pipeline_config(self, running_task):
        workload, _, skeleton = infer_for(
            running_task, ParallelismConfig(4, 4, 1)
        )
        assert skeleton.num_stages == 4
        assert skeleton.coverage(traffic_edges(workload)) == 1.0

    def test_mesh_topology_covers_moe_traffic(self, running_task):
        config = ParallelismConfig(4, 2, 2, ep=2)
        workload = TrainingWorkload(running_task, config)
        generator = TrafficGenerator(workload, rng=RngRegistry(3))
        series = generator.all_series(600.0)

        def host_of(endpoint):
            return running_task.containers[endpoint.container].host

        skeleton = SkeletonInference(group_topology="mesh").infer(
            series, host_of
        )
        assert skeleton.coverage(traffic_edges(workload)) == 1.0

    def test_invalid_topology_rejected(self):
        with pytest.raises(ValueError):
            SkeletonInference(group_topology="star")

    def test_auto_topology_picks_ring_for_dense(self, running_task):
        _, _, skeleton = infer_for(
            running_task, ParallelismConfig(4, 2, 2),
            group_topology="auto",
        )
        assert skeleton.group_topology == "ring"

    def test_auto_topology_picks_mesh_for_moe(self, running_task):
        config = ParallelismConfig(4, 2, 2, ep=2)
        workload, _, skeleton = infer_for(
            running_task, config, group_topology="auto",
        )
        assert skeleton.group_topology == "mesh"
        assert skeleton.coverage(traffic_edges(workload)) == 1.0

    def test_segment_counting(self):
        import numpy as np

        two_phase = np.zeros(30)
        two_phase[0:12] = 10.0
        two_phase[25:30] = 14.0
        assert SkeletonInference._active_segments(two_phase) == 2
        three_phase = two_phase.copy()
        three_phase[14:18] = 9.0
        assert SkeletonInference._active_segments(three_phase) == 3
        assert SkeletonInference._active_segments(np.zeros(30)) == 0

    def test_too_few_endpoints_rejected(self, running_task):
        endpoint = running_task.container(0).endpoint(0)
        with pytest.raises(ValueError):
            SkeletonInference().infer(
                {endpoint: np.zeros(600)}, lambda e: 0
            )

    def test_short_series_rejected(self, running_task):
        workload = TrainingWorkload(running_task, ParallelismConfig(4, 2, 2))
        generator = TrafficGenerator(workload, rng=RngRegistry(3))
        series = generator.all_series(64.0)  # one STFT window, < 1 iter ok?
        short = {e: s[:20] for e, s in series.items()}
        with pytest.raises(ValueError):
            SkeletonInference().infer(
                short,
                lambda e: running_task.containers[e.container].host,
            )

    def test_edges_never_intra_container(self, running_task):
        _, _, skeleton = infer_for(running_task, ParallelismConfig(4, 2, 2))
        for edge in skeleton.edges:
            a, b = sorted(edge)
            assert a.container != b.container


class TestStagePartition:
    def test_clean_onsets(self):
        labels = SkeletonInference._partition_stages([0, 0, 4, 4, 8, 8])
        assert labels == [0, 0, 1, 1, 2, 2]

    def test_jittered_onsets_survive(self):
        # One onset off by one must not split or merge stages.
        labels = SkeletonInference._partition_stages([0, 1, 4, 4, 8, 9])
        assert labels == [0, 0, 1, 1, 2, 2]

    def test_single_stage(self):
        labels = SkeletonInference._partition_stages([0, 0, 0, 1])
        assert len(set(labels)) == 1

    def test_singleton_groups_all_stages(self):
        labels = SkeletonInference._partition_stages([0, 5, 10, 15])
        assert labels == [0, 1, 2, 3]

    def test_empty(self):
        assert SkeletonInference._partition_stages([]) == []
