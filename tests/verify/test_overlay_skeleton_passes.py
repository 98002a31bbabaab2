"""Tests for the overlay-reachability and skeleton-coverage passes."""

from dataclasses import replace

import pytest

from repro.cluster.flowtable import FlowKey
from repro.cluster.identifiers import ContainerId, EndpointId
from repro.cluster.overlay import ovs_name, veth_name
from repro.core.pinglist import ProbePair
from repro.verify.framework import Severity, VerificationContext
from repro.verify.overlay_passes import EndpointChainPass, VtepSymmetryPass
from repro.verify.skeleton_passes import (
    ProbeTargetPass,
    SkeletonCoveragePass,
)


@pytest.fixture
def scenario(small_scenario):
    return small_scenario


def context(scenario):
    return VerificationContext.from_scenario(scenario)


def swap_ping_list(scenario, change):
    """Hand the controller a list over ``change(pairs)``: ``pairs`` is
    frozen, so a bad list arrives the way a good one does — whole."""
    state = scenario.hunter.controller._state(scenario.task.id)
    state.ping_list = replace(
        state.ping_list, pairs=change(state.ping_list.pairs)
    )


class TestEndpointChainPass:
    def test_healthy_scenario_is_clean(self, scenario):
        result = EndpointChainPass().run(context(scenario))
        assert result.findings == []
        assert result.checked == 16  # 4 containers x 4 endpoints

    def test_downed_veth_is_reported(self, scenario):
        overlay = scenario.cluster.overlay
        endpoint = overlay.attached_endpoints()[0]
        overlay.health(veth_name(endpoint)).down = True
        result = EndpointChainPass().run(context(scenario))
        assert any(
            f.component == veth_name(endpoint)
            and "statically unreachable" in f.explanation
            for f in result.findings
        )

    def test_missing_deliver_rule_blames_the_ovs(self, scenario):
        overlay = scenario.cluster.overlay
        endpoint = overlay.attached_endpoints()[0]
        record = overlay.record_of(endpoint)
        vni = overlay.vni_of(endpoint.container.task)
        overlay.ovs_table(record.host).remove(
            FlowKey(vni, record.overlay_ip)
        )
        result = EndpointChainPass().run(context(scenario))
        missing = [
            f for f in result.findings
            if "no DELIVER rule" in f.explanation
        ]
        assert len(missing) == 1
        assert missing[0].component == ovs_name(record.host)
        assert str(endpoint) in missing[0].explanation

    def test_skips_nothing_on_empty_cluster(self, scenario):
        # An overlay with no endpoints checks zero objects cleanly.
        from repro.cluster.orchestrator import Cluster

        bare = Cluster(scenario.topology)
        result = EndpointChainPass().run(
            VerificationContext(cluster=bare)
        )
        assert result.findings == []
        assert result.checked == 0


class TestVtepSymmetryPass:
    def test_healthy_scenario_is_clean(self, scenario):
        result = VtepSymmetryPass().run(context(scenario))
        assert result.findings == []

    def test_broken_reverse_mapping(self, scenario):
        overlay = scenario.cluster.overlay
        rnic, ip = sorted(overlay.rnic_underlay_ips().items())[0]
        del overlay._by_underlay_ip[ip]
        result = VtepSymmetryPass().run(context(scenario))
        asymmetric = [
            f for f in result.findings
            if "not resolvable" in f.explanation
        ]
        assert len(asymmetric) == 1
        assert asymmetric[0].component == str(rnic)

    def test_blackholed_encap_when_remote_unknown(self, scenario):
        scenario.run_for(10)  # probing installs the ENCAP rules
        overlay = scenario.cluster.overlay
        # Drop a mapping that some ENCAP rule actually targets.
        for host in overlay.hosts_with_tables():
            for rule in overlay.ovs_table(host).rules():
                if rule.action.remote_underlay_ip:
                    del overlay._by_underlay_ip[
                        rule.action.remote_underlay_ip
                    ]
                    result = VtepSymmetryPass().run(context(scenario))
                    assert any(
                        "blackholed" in " ".join(f.details)
                        for f in result.findings
                    )
                    return
        raise AssertionError("scenario has no ENCAP rules")


class TestProbeTargetPass:
    def test_healthy_scenario_is_clean(self, scenario):
        result = ProbeTargetPass().run(context(scenario))
        assert result.findings == []
        assert result.checked > 0

    def test_skips_without_hunter(self, scenario):
        result = ProbeTargetPass().run(
            VerificationContext(cluster=scenario.cluster)
        )
        assert result.skipped
        assert "no SkeletonHunter" in result.reason

    def test_pair_against_unplaced_container(self, scenario):
        hunter = scenario.hunter
        task_id = scenario.task.id
        ping_list = hunter.controller.ping_list_of(task_id)
        ghost = EndpointId(ContainerId(task_id, 999), 0)
        real = sorted(ping_list.pairs)[0].src
        swap_ping_list(
            scenario, lambda pairs: pairs | {ProbePair.canonical(ghost, real)}
        )
        result = ProbeTargetPass().run(context(scenario))
        assert any(
            f.component == str(ghost)
            and "never placed" in f.explanation
            for f in result.findings
        )

    def test_out_of_range_slot(self, scenario):
        hunter = scenario.hunter
        task_id = scenario.task.id
        ping_list = hunter.controller.ping_list_of(task_id)
        real = sorted(ping_list.pairs)[0]
        bogus = EndpointId(real.src.container, 99)
        swap_ping_list(
            scenario,
            lambda pairs: pairs | {ProbePair.canonical(bogus, real.dst)},
        )
        result = ProbeTargetPass().run(context(scenario))
        assert any(
            "slot 99 exceeds" in f.explanation
            for f in result.findings
        )


class TestSkeletonCoveragePass:
    def test_healthy_scenario_is_clean(self, scenario):
        result = SkeletonCoveragePass().run(context(scenario))
        assert not result.skipped
        assert result.findings == []
        assert result.checked > 0

    def test_skips_without_workload(self, scenario):
        result = SkeletonCoveragePass().run(VerificationContext(
            cluster=scenario.cluster, hunter=scenario.hunter,
        ))
        assert result.skipped

    def test_dropped_pair_is_uncovered_traffic_edge(self, scenario):
        from repro.training.collectives import traffic_edges

        edges = traffic_edges(scenario.workload)
        victim = sorted(edges, key=sorted)[0]
        a, b = sorted(victim)
        swap_ping_list(
            scenario, lambda pairs: pairs - {ProbePair.canonical(a, b)}
        )
        result = SkeletonCoveragePass().run(context(scenario))
        errors = [
            f for f in result.findings if f.severity is Severity.ERROR
        ]
        assert len(errors) == 1
        assert "would go unprobed" in errors[0].explanation
        assert str(a) in errors[0].component
