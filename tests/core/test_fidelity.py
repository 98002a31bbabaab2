"""Tests for skeleton fidelity validation and fallback (§7.3)."""

import numpy as np
import pytest

from repro.core.fidelity import FidelityChecker
from repro.core.pinglist import PingList, PingListPhase, ProbePair
from repro.workloads.scenarios import build_scenario


@pytest.fixture
def scenario():
    return build_scenario(
        num_containers=4, gpus_per_container=4, pp=2, seed=77,
    )


def flat_series(scenario, value=0.05):
    """A burstless workload: the tenant stopped training."""
    rng = np.random.default_rng(0)
    return {
        endpoint: np.abs(rng.normal(value, 0.02, 600))
        for endpoint in scenario.workload.endpoints()
    }


def scrambled_series(scenario):
    """A user debugging interactively: endpoints emit arbitrary
    patterns uncorrelated with their inferred position (the §7.3
    'users' uncertain workloads' case)."""
    endpoints = scenario.workload.endpoints()
    rng = np.random.default_rng(4)
    shuffled = list(rng.permutation(len(endpoints)))
    return {
        endpoints[i]: scenario.generator.series(
            endpoints[int(j)], 600.0
        )
        for i, j in enumerate(shuffled)
    }


class TestCheck:
    def test_matching_traffic_scores_high(self, scenario):
        skeleton = scenario.apply_skeleton()
        fresh = scenario.generator.all_series(600.0)
        report = FidelityChecker().check(
            scenario.task.id, skeleton, fresh
        )
        assert report.aligned()
        assert report.group_coherence > 0.9
        assert report.activity_fraction == 1.0

    def test_idle_workload_scores_low(self, scenario):
        skeleton = scenario.apply_skeleton()
        report = FidelityChecker().check(
            scenario.task.id, skeleton, flat_series(scenario)
        )
        assert not report.aligned()
        assert report.activity_fraction == 0.0

    def test_changed_parallelism_scores_low(self, scenario):
        skeleton = scenario.apply_skeleton()
        report = FidelityChecker().check(
            scenario.task.id, skeleton, scrambled_series(scenario)
        )
        # The shared all-reduce burst keeps raw correlation moderate,
        # but group onsets no longer match their inferred stages.
        assert report.stage_consistency < 0.9
        assert not report.aligned()

    def test_missing_observations_marked_incoherent(self, scenario):
        skeleton = scenario.apply_skeleton()
        fresh = scenario.generator.all_series(600.0)
        dropped = next(iter(fresh))
        del fresh[dropped]
        report = FidelityChecker().check(
            scenario.task.id, skeleton, fresh
        )
        assert dropped in report.incoherent_endpoints


class TestEnforce:
    def test_aligned_skeleton_stays(self, scenario):
        scenario.apply_skeleton()
        checker = FidelityChecker()
        report = checker.enforce(
            scenario.hunter.controller, scenario.task.id,
            scenario.generator.all_series(600.0),
        )
        assert report.aligned()
        assert scenario.hunter.controller.phase_of(scenario.task.id) == \
            PingListPhase.SKELETON

    def test_misaligned_skeleton_demoted_to_basic(self, scenario):
        scenario.apply_skeleton()
        checker = FidelityChecker()
        report = checker.enforce(
            scenario.hunter.controller, scenario.task.id,
            flat_series(scenario),
        )
        assert not report.aligned()
        controller = scenario.hunter.controller
        assert controller.phase_of(scenario.task.id) == \
            PingListPhase.BASIC
        assert controller.skeleton_of(scenario.task.id) is None
        # The restored basic list is fully activated and monitoring
        # continues seamlessly.
        assert controller.ping_list_of(
            scenario.task.id
        ).activation_ratio() == 1.0

    def test_basic_phase_untouched(self, scenario):
        checker = FidelityChecker()
        report = checker.enforce(
            scenario.hunter.controller, scenario.task.id,
            flat_series(scenario),
        )
        assert report.aligned()  # degenerate pass-through
        assert scenario.hunter.controller.phase_of(scenario.task.id) == \
            PingListPhase.BASIC

    def test_probing_works_after_demotion(self, scenario):
        scenario.apply_skeleton()
        FidelityChecker().enforce(
            scenario.hunter.controller, scenario.task.id,
            flat_series(scenario),
        )
        before = scenario.fabric.probes_sent
        scenario.run_for(10)
        assert scenario.fabric.probes_sent > before


class TestPeriodicity:
    def test_periodic_signal_concentrates(self, scenario):
        checker = FidelityChecker()
        series = scenario.generator.series(
            scenario.workload.endpoint_of(0), 600.0, with_noise=False
        )
        assert checker._periodicity(series) > 0.5

    def test_noise_does_not_concentrate(self):
        checker = FidelityChecker()
        noise = np.abs(np.random.default_rng(0).normal(1.0, 0.5, 600))
        assert checker._periodicity(noise) < 0.4

    def test_short_series_scores_zero(self):
        checker = FidelityChecker()
        assert checker._periodicity(np.ones(30)) == 0.0

    def test_round_after_demotion_probes_what_the_pair_set_did(
        self, scenario
    ):
        """The demoted list is rails, not pairs; one round over it must
        hand the fabric the batch the materialised list handed it —
        same pairs, same order — without building the whole set."""
        scenario.apply_skeleton()
        controller = scenario.hunter.controller
        task = scenario.task
        FidelityChecker().enforce(
            controller, task.id, flat_series(scenario)
        )
        demoted = controller.ping_list_of(task.id)

        def rail(endpoint):
            return task.containers[endpoint.container].rail_of(endpoint)

        endpoints = task.endpoints()
        before_rails = PingList(pairs={
            ProbePair(a, b)
            for a in endpoints for b in endpoints
            if a < b and a.container != b.container and rail(a) == rail(b)
        })
        for container in task.running_containers():
            before_rails.register(container.id)
        want = [
            pair
            for agent in controller.agents_of(task.id)
            for pair in before_rails.active_pairs_from(agent.container.id)
        ]
        batches = []
        send = scenario.fabric.send_probe_batch

        def tapped(pairs, at):
            batches.append(list(pairs))
            return send(pairs, at)

        scenario.fabric.send_probe_batch = tapped
        scenario.run_for(scenario.hunter.probe_interval_s)
        assert batches and all(batch == want for batch in batches)
        assert len(want) == len(demoted) == len(before_rails)
        assert "pairs" not in vars(demoted)
