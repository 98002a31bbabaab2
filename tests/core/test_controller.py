"""Tests for the controller's ping-list phases and agent management."""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from repro.analysis.clustering import constrained_position_groups
from repro.analysis.stft import feature_matrix
from repro.core.controller import Controller, ControllerError
from repro.core.pinglist import PingList, PingListPhase, ProbePair
from repro.core.skeleton import SkeletonInference
from repro.sim.rng import RngRegistry
from repro.training.parallelism import ParallelismConfig
from repro.training.traffic import TrafficGenerator
from repro.training.workload import TrainingWorkload
from repro.workloads.scenarios import build_scenario


@pytest.fixture
def controller(cluster):
    return Controller(cluster)


class TestPreload:
    def test_preload_builds_basic_list(self, controller, running_task):
        ping_list = controller.preload_task(running_task)
        assert ping_list.phase == PingListPhase.BASIC
        assert len(ping_list) > 0
        assert controller.phase_of(running_task.id) == PingListPhase.BASIC

    def test_double_preload_rejected(self, controller, running_task):
        controller.preload_task(running_task)
        with pytest.raises(ControllerError):
            controller.preload_task(running_task)

    def test_unknown_task_queries_rejected(self, controller):
        from repro.cluster.identifiers import TaskId

        with pytest.raises(ControllerError):
            controller.ping_list_of(TaskId(404))


class TestAgentLifecycle:
    def test_agent_created_and_registered(self, controller, running_task):
        controller.preload_task(running_task)
        agent = controller.on_container_running(
            running_task.container(0), now=10.0
        )
        assert agent.started_at == 10.0
        ping_list = controller.ping_list_of(running_task.id)
        assert ping_list._registered == {running_task.container(0).id}

    def test_activation_grows_as_agents_register(
        self, controller, running_task
    ):
        controller.preload_task(running_task)
        ping_list = controller.ping_list_of(running_task.id)
        ratios = []
        for rank in range(4):
            controller.on_container_running(
                running_task.container(rank), now=float(rank)
            )
            ratios.append(ping_list.activation_ratio())
        assert ratios[-1] == 1.0
        assert ratios == sorted(ratios)

    def test_finished_container_deactivated(self, controller, running_task):
        controller.preload_task(running_task)
        for rank in range(4):
            controller.on_container_running(
                running_task.container(rank), now=0.0
            )
        controller.on_container_finished(running_task.container(0))
        assert len(controller.agents_of(running_task.id)) == 3
        ping_list = controller.ping_list_of(running_task.id)
        assert ping_list.activation_ratio() < 1.0

    def test_running_without_preload_rejected(
        self, controller, running_task
    ):
        with pytest.raises(ControllerError):
            controller.on_container_running(
                running_task.container(0), now=0.0
            )


class TestSkeletonPhase:
    def test_apply_skeleton_shrinks_and_swaps_lists(
        self, controller, running_task
    ):
        controller.preload_task(running_task)
        agents = [
            controller.on_container_running(
                running_task.container(rank), now=0.0
            )
            for rank in range(4)
        ]
        workload = TrainingWorkload(running_task, ParallelismConfig(4, 2, 2))
        generator = TrafficGenerator(workload, rng=RngRegistry(2))
        series = generator.all_series(600.0)

        def host_of(endpoint):
            return running_task.containers[endpoint.container].host

        skeleton = SkeletonInference().infer(series, host_of)
        basic_size = len(controller.ping_list_of(running_task.id))
        optimized = controller.apply_skeleton(running_task.id, skeleton)
        assert optimized.phase == PingListPhase.SKELETON
        assert len(optimized) < basic_size
        assert controller.skeleton_of(running_task.id) is skeleton
        for agent in agents:
            assert agent.ping_list is optimized

    def test_skeleton_preserves_activation(self, controller, running_task):
        controller.preload_task(running_task)
        for rank in range(4):
            controller.on_container_running(
                running_task.container(rank), now=0.0
            )
        workload = TrainingWorkload(running_task, ParallelismConfig(4, 2, 2))
        generator = TrafficGenerator(workload, rng=RngRegistry(2))
        skeleton = SkeletonInference().infer(
            generator.all_series(600.0),
            lambda e: running_task.containers[e.container].host,
        )
        optimized = controller.apply_skeleton(running_task.id, skeleton)
        assert optimized.activation_ratio() == 1.0


@contextmanager
def counting_probe_pairs():
    """Every ``ProbePair`` constructed inside the block, counted."""
    built = []
    init = ProbePair.__init__

    def counted(self, src, dst):
        built.append(1)
        init(self, src, dst)

    with mock.patch.object(ProbePair, "__init__", counted):
        yield built


class TestSetUpBuildsNoPreloadPairs:
    """Task set-up must cost what the skeleton costs, not what the
    preload list would: the guard on the 261,120 pairs a 2,048-endpoint
    task used to build and throw away."""

    def test_watch_to_skeleton_builds_pairs_in_proportion_to_the_skeleton(
        self
    ):
        with counting_probe_pairs() as built:
            scenario = build_scenario(
                num_containers=64, gpus_per_container=8, pp=2, seed=11,
                observe=True,
            )
            scenario.apply_skeleton()
        controller = scenario.hunter.controller
        optimized = controller.ping_list_of(scenario.task.id)
        assert optimized.phase == PingListPhase.SKELETON
        assert 0 < len(built) <= 4 * len(optimized)
        # The recorder still reports the preload list's true size.
        obs = scenario.observability
        preload = obs.last_event("controller.preload").fields["pairs"]
        assert preload == 8 * (64 * 63 // 2)
        applied = obs.last_event("controller.skeleton_applied").fields
        assert applied["pairs_before"] == preload
        assert applied["pairs_after"] == len(optimized) < preload // 8
        names = [span.name for span in obs.spans()]
        for name in (
            "controller.preload", "skeleton.sanitize", "skeleton.features",
            "skeleton.cluster", "skeleton.stages", "skeleton.edges",
            "controller.apply_skeleton",
        ):
            assert name in names, name
        # k = 16 wins on a gap the k = 8 cut cannot reach, so the sweep
        # stops before the one cut that needs an Eq. 3 repair.
        assert "skeleton.repair" not in names
        # Asked for alone, that cut is still repaired.
        series = scenario.generator.all_series(600.0)
        endpoints = sorted(series)
        constrained_position_groups(
            feature_matrix([series[e] for e in endpoints]),
            [scenario.task.containers[e.container].host for e in endpoints],
            candidate_group_counts=[8], recorder=obs,
        )
        assert [span.attrs for span in obs.spans("skeleton.repair")] == [
            {"groups": 8}
        ]

    def test_quarantined_endpoints_keep_their_preload_pairs(
        self, controller, running_task
    ):
        """The pairs the old whole-list scan kept, from the quarantined
        endpoints' rails alone — and again from a list that is already
        a pair set."""
        preload = controller.preload_task(running_task)
        for rank in range(4):
            controller.on_container_running(
                running_task.container(rank), now=0.0
            )
        workload = TrainingWorkload(running_task, ParallelismConfig(4, 2, 2))
        series = TrafficGenerator(
            workload, rng=RngRegistry(2)
        ).all_series(600.0)
        victims = sorted(series)[:2]
        for victim in victims:
            series[victim] = np.full_like(series[victim], np.nan)
        skeleton = SkeletonInference().infer(
            series, lambda e: running_task.containers[e.container].host
        )
        assert skeleton.quarantined == victims
        everything = PingList.basic(
            running_task.endpoints(), controller._rail_of(running_task)
        ).pairs
        want = {
            pair for pair in everything
            if frozenset((pair.src, pair.dst)) in skeleton.edges
            or pair.src in victims or pair.dst in victims
        }
        with counting_probe_pairs() as built:
            optimized = controller.apply_skeleton(
                running_task.id, skeleton
            )
        assert optimized.pairs == want
        assert any(p.src in victims or p.dst in victims for p in want)
        assert "pairs" not in vars(preload)
        assert len(built) < len(everything)
        again = controller.apply_skeleton(running_task.id, skeleton)
        assert again.pairs == want
