"""Tests for the scenario builder."""

import pytest

from repro.workloads.scenarios import build_scenario


class TestBuildScenario:
    def test_default_parallelism_derived(self):
        scenario = build_scenario(
            num_containers=4, gpus_per_container=4, pp=2, seed=1
        )
        config = scenario.workload.config
        assert config.tp == 4
        assert config.pp == 2
        assert config.dp == 2
        assert config.num_gpus == scenario.task.total_gpus

    def test_invalid_parallelism_rejected(self):
        with pytest.raises(ValueError):
            build_scenario(num_containers=3, gpus_per_container=4, pp=7)

    def test_monitoring_starts_by_default(self):
        scenario = build_scenario(
            num_containers=2, gpus_per_container=4, pp=1, seed=1
        )
        scenario.run_for(10)
        assert scenario.fabric.probes_sent > 0

    def test_monitoring_can_start_disarmed(self):
        scenario = build_scenario(
            num_containers=2, gpus_per_container=4, pp=1, seed=1,
            start_monitoring=False,
        )
        scenario.run_for(10)
        assert scenario.fabric.probes_sent == 0

    def test_phased_startup_supported(self):
        scenario = build_scenario(
            num_containers=4, gpus_per_container=4, pp=2, seed=1,
            instant_startup=False,
        )
        assert not scenario.task.all_running
        scenario.run_for(3600)
        assert scenario.task.all_running

    def test_seeded_runs_reproduce(self):
        def run():
            scenario = build_scenario(
                num_containers=2, gpus_per_container=4, pp=1, seed=5
            )
            scenario.run_for(30)
            return scenario.fabric.probes_sent

        assert run() == run()

    def test_rnic_of_rank_matches_workload(self):
        scenario = build_scenario(
            num_containers=2, gpus_per_container=4, pp=1, seed=1
        )
        rnic = scenario.rnic_of_rank(5)
        endpoint = scenario.endpoint_of_rank(5)
        assert rnic == scenario.cluster.overlay.rnic_of(endpoint)


class TestScenarioOptions:
    def test_custom_latency_model_respected(self):
        from repro.network.latency import LatencyModel

        slow_fabric = build_scenario(
            num_containers=2, gpus_per_container=4, pp=1, seed=2,
            latency_model=LatencyModel(host_stack_us=10.0),
        )
        slow_fabric.run_for(4)
        result = slow_fabric.fabric.send_probe(
            slow_fabric.task.container(0).endpoint(0),
            slow_fabric.task.container(1).endpoint(0),
            slow_fabric.engine.now,
        )
        assert result.latency_us > 40.0  # 4 x 10 us host stacks alone

    def test_custom_detector_config_respected(self):
        from repro.core.detection import DetectorConfig

        scenario = build_scenario(
            num_containers=2, gpus_per_container=4, pp=1, seed=2,
            detector_config=DetectorConfig(
                fast_unconnectivity_probes=2
            ),
        )
        assert scenario.hunter.analyzer.config.fast_unconnectivity_probes \
            == 2

    def test_custom_iteration_period_flows_to_generator(self):
        scenario = build_scenario(
            num_containers=2, gpus_per_container=4, pp=1, seed=2,
            iteration_period_s=60.0,
        )
        assert scenario.generator.model.iteration_period_s == 60.0
        assert scenario.workload.iteration_period_s == 60.0

    def test_score_with_explicit_fault_subset(self):
        from repro.network.issues import IssueType

        scenario = build_scenario(
            num_containers=2, gpus_per_container=4, pp=1, seed=2,
        )
        scenario.run_for(100)
        first = scenario.inject(
            IssueType.RNIC_PORT_DOWN, scenario.rnic_of_rank(4)
        )
        scenario.run_for(30)
        scenario.clear(first)
        score, outcomes = scenario.score(faults=[first])
        assert len(outcomes) == 1
        assert outcomes[0].fault is first

    def test_ep_scenario_builds_moe_workload(self):
        scenario = build_scenario(
            num_containers=4, gpus_per_container=4, pp=2, ep=2, seed=3,
        )
        assert scenario.workload.config.ep == 2


class TestGroundTruthPublisher:
    def test_published_fault_ids_are_the_injectors_own(self):
        """Ids are run-local at the source, so the publisher passes
        them through: inject and clear of one fault share its id, and
        a pinned id is published as pinned."""
        from repro.bus import TelemetryBus, Topic
        from repro.network.issues import IssueType

        bus = TelemetryBus()
        scenario = build_scenario(
            num_containers=2, gpus_per_container=4, pp=1, seed=1, bus=bus
        )
        rnic = scenario.rnic_of_rank(0)
        first = scenario.inject(IssueType.RNIC_PORT_DOWN, rnic)
        pinned = scenario.inject(
            IssueType.PCIE_NIC_ERROR, rnic.host, fault_id=7
        )
        scenario.clear(first)
        assert (first.fault_id, pinned.fault_id) == (0, 7)
        network = [
            (record["data"]["action"], record["data"]["fault"]["fault_id"])
            for record in bus.history(Topic.GROUND_TRUTH)
            if record["data"]["plane"] == "network"
        ]
        assert network == [("inject", 0), ("inject", 7), ("clear", 0)]
