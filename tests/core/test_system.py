"""Tests for the SkeletonHunter facade."""

from repro.core.pinglist import PingListPhase
from repro.network.issues import IssueType


class TestMonitoringLoop:
    def test_probes_flow_into_analyzer(self, small_scenario):
        small_scenario.run_for(20)
        assert small_scenario.hunter.monitored_pairs()
        assert small_scenario.fabric.probes_sent > 0

    def test_no_events_on_healthy_cluster(self, small_scenario):
        small_scenario.run_for(300)
        assert small_scenario.hunter.events == []

    def test_stop_halts_probing(self, small_scenario):
        small_scenario.run_for(10)
        sent = small_scenario.fabric.probes_sent
        small_scenario.hunter.stop()
        small_scenario.run_for(50)
        assert small_scenario.fabric.probes_sent == sent

    def test_start_is_idempotent(self, small_scenario):
        small_scenario.hunter.start()
        small_scenario.hunter.start()
        small_scenario.run_for(4)
        # One probing round per interval, not two.
        pairs = len(small_scenario.hunter.controller.ping_list_of(
            small_scenario.task.id
        ).active_pairs())
        assert small_scenario.fabric.probes_sent <= 2 * pairs


class TestSkeletonOptimization:
    def test_observe_and_optimize_shrinks_list(self, small_scenario):
        task_id = small_scenario.task.id
        before = len(
            small_scenario.hunter.controller.ping_list_of(task_id)
        )
        skeleton = small_scenario.apply_skeleton()
        after = len(
            small_scenario.hunter.controller.ping_list_of(task_id)
        )
        assert after < before
        assert skeleton.dp == small_scenario.workload.config.dp
        assert small_scenario.hunter.controller.phase_of(task_id) == \
            PingListPhase.SKELETON

    def test_detection_still_works_on_skeleton(self, small_scenario):
        small_scenario.apply_skeleton()
        small_scenario.run_for(120)
        rnic = small_scenario.rnic_of_rank(4)
        fault = small_scenario.inject(IssueType.RNIC_PORT_DOWN, rnic)
        small_scenario.run_for(60)
        score, outcomes = small_scenario.score()
        assert outcomes[0].detected


class TestFailureHandling:
    def test_event_and_report_produced(self, small_scenario):
        small_scenario.run_for(100)
        rnic = small_scenario.rnic_of_rank(4)
        small_scenario.inject(IssueType.RNIC_PORT_DOWN, rnic)
        small_scenario.run_for(40)
        assert small_scenario.hunter.events
        assert small_scenario.hunter.reports

    def test_events_localized_once(self, small_scenario):
        small_scenario.run_for(100)
        rnic = small_scenario.rnic_of_rank(4)
        small_scenario.inject(IssueType.RNIC_PORT_DOWN, rnic)
        small_scenario.run_for(100)
        # The same open incident must not be re-localized every round.
        assert len(small_scenario.hunter.reports) <= 3

    def test_crashed_container_still_probed(self, small_scenario):
        # A crash must not deregister: peers' probes failing IS the
        # signal (the incremental-activation design, §5.1).
        small_scenario.run_for(60)
        container = small_scenario.task.container(1)
        small_scenario.inject(IssueType.CONTAINER_CRASH, container)
        small_scenario.orchestrator.crash_container(container)
        small_scenario.run_for(30)
        events = small_scenario.hunter.events
        assert any(
            container.id in (e.pair.src.container, e.pair.dst.container)
            for e in events
        )
