"""Tests for explainable diagnoses: one injected fault per layer."""

import pytest

from repro.cluster.identifiers import LinkId
from repro.core.analyzer import FailureEvent
from repro.core.localization import Localizer
from repro.core.pinglist import ProbePair
from repro.network.fabric import DataPlaneFabric
from repro.network.faults import FaultInjector
from repro.network.issues import IssueType, Symptom
from repro.obs.explain import explain_diagnosis, explain_report
from repro.obs.trace import TraceRecorder


@pytest.fixture
def stack(cluster, running_task, rng):
    recorder = TraceRecorder()
    injector = FaultInjector(cluster)
    fabric = DataPlaneFabric(cluster, injector, rng)
    localizer = Localizer(cluster, fabric, recorder=recorder)
    return cluster, running_task, injector, fabric, localizer, recorder


def pair_of(task, src_rank, dst_rank, slot=0):
    return ProbePair.canonical(
        task.container(src_rank).endpoint(slot),
        task.container(dst_rank).endpoint(slot),
    )


def event(pair, symptom=Symptom.UNCONNECTIVITY, at=100.0):
    return FailureEvent(pair=pair, first_detected_at=at, symptom=symptom)


def warm_flows(fabric, pairs):
    for pair in pairs:
        fabric.send_probe(pair.src, pair.dst, at=0.0)


class TestOverlayExplanation:
    def test_container_crash_explains_walk_steps(self, stack):
        cluster, task, injector, fabric, localizer, recorder = stack
        pair = pair_of(task, 0, 1)
        warm_flows(fabric, [pair])
        injector.inject_issue(
            IssueType.CONTAINER_CRASH, task.container(1), start=50.0
        )
        report = localizer.localize([event(pair)])
        diagnosis = report.diagnoses[0]
        assert diagnosis.layer == "overlay"
        text = explain_diagnosis(diagnosis, recorder)
        assert "evidence chain:" in text
        assert "overlay walk for" in text
        assert diagnosis.component in text
        # The broken hop is flagged, healthy hops before it pass.
        assert "XX " in text
        assert "ok " in text


class TestTomographyExplanation:
    def test_rnic_fault_explains_votes_for_its_access_link(self, stack):
        # A dead RNIC is named by its access link (path evidence cannot
        # tell the two apart), which the vote itself singles out.
        cluster, task, injector, fabric, localizer, recorder = stack
        failing = [pair_of(task, src, 1) for src in (0, 2, 3)]
        healthy = [pair_of(task, 0, 2), pair_of(task, 0, 3),
                   pair_of(task, 2, 3)]
        warm_flows(fabric, failing + healthy)
        rnic = cluster.overlay.rnic_of(task.container(1).endpoint(0))
        injector.inject_issue(
            IssueType.RNIC_HARDWARE_FAILURE, rnic, start=50.0
        )
        report = localizer.localize(
            [event(p) for p in failing], healthy_pairs=healthy
        )
        access = str(LinkId.between(rnic, cluster.topology.tor_of(rnic)))
        culprit = report.diagnoses[0]
        assert culprit.component == access
        text = explain_diagnosis(culprit, recorder)
        assert "tomography over 3 failing paths" in text
        assert "vote(s):" in text
        assert f"{access} <- suspect" in text
        assert "promoted to" not in text


class TestFlowTableExplanation:
    def test_offloading_fault_explains_dump_findings(self, stack):
        cluster, task, injector, fabric, localizer, recorder = stack
        pair = pair_of(task, 0, 1)
        warm_flows(fabric, [pair])
        rnic = cluster.overlay.rnic_of(pair.src)
        injector.inject_issue(
            IssueType.REPETITIVE_FLOW_OFFLOADING, rnic, start=50.0
        )
        report = localizer.localize(
            [event(pair, Symptom.HIGH_LATENCY)]
        )
        diagnosis = next(
            d for d in report.diagnoses if d.layer == "rnic"
        )
        text = explain_diagnosis(diagnosis, recorder)
        assert "flow-table validation of" in text
        assert str(rnic) in text
        assert "inconsistencies" in text


class TestGracefulDegradation:
    def test_explain_without_recorder_keeps_header(self, stack):
        cluster, task, injector, fabric, localizer, recorder = stack
        pair = pair_of(task, 0, 1)
        warm_flows(fabric, [pair])
        injector.inject_issue(
            IssueType.CONTAINER_CRASH, task.container(1), start=50.0
        )
        report = localizer.localize([event(pair)])
        text = explain_diagnosis(report.diagnoses[0])
        assert "diagnosis:" in text
        assert "no trace recorder attached" in text
        assert "evidence chain:" not in text

    def test_empty_report_explains_itself(self, stack):
        _, _, _, _, localizer, recorder = stack
        report = localizer.localize([])
        assert "nothing to explain" in explain_report(report, recorder)


class TestEndToEndExplanation:
    def test_every_diagnosis_in_a_run_gets_a_chain(self):
        from repro.workloads.scenarios import build_scenario

        scenario = build_scenario(
            num_containers=4, gpus_per_container=4, pp=2, seed=7,
            hosts_per_segment=4, observe=True,
        )
        scenario.run_for(150)
        fault = scenario.inject(
            IssueType.RNIC_PORT_DOWN, scenario.rnic_of_rank(4)
        )
        scenario.run_for(60)
        scenario.clear(fault)
        scenario.run_for(60)
        obs = scenario.observability
        assert scenario.hunter.reports
        for _, report in scenario.hunter.reports:
            text = explain_report(report, obs)
            for diagnosis in report.diagnoses:
                assert diagnosis.component in text
            if report.diagnoses:
                assert "evidence chain:" in text
                assert "triggering anomalies:" in text
