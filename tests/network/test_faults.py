"""Tests for fault injection and its data-plane side effects."""

import pytest

from repro.cluster.identifiers import HostId, LinkId, RnicId, SwitchId
from repro.cluster.overlay import vtep_name
from repro.cluster.topology import UnderlayPath
from repro.network.faults import Effects, Fault, FaultInjector
from repro.network.issues import IssueType, Symptom


@pytest.fixture
def injector(cluster):
    return FaultInjector(cluster)


@pytest.fixture
def rnic(running_task, cluster):
    endpoint = running_task.container(1).endpoint(0)
    return cluster.overlay.rnic_of(endpoint)


class TestFaultTiming:
    def test_active_window(self):
        fault = Fault(IssueType.CRC_ERROR, None, start=10.0, end=20.0)
        assert not fault.active_at(9.9)
        assert fault.active_at(10.0)
        assert fault.active_at(19.9)
        assert not fault.active_at(20.0)

    def test_open_ended_fault(self):
        fault = Fault(IssueType.CRC_ERROR, None, start=10.0)
        assert fault.active_at(1e9)

    def test_flapping_phases(self):
        fault = Fault(
            IssueType.SWITCH_PORT_FLAPPING, None, start=0.0,
            flap_period_s=10.0, flap_duty=0.5, down=True,
        )
        assert fault.misbehaving_at(1.0)       # bad phase
        assert not fault.misbehaving_at(6.0)   # good phase
        assert fault.misbehaving_at(11.0)      # next period

    def test_flow_selector(self):
        fault = Fault(
            IssueType.RNIC_FIRMWARE_NOT_RESPONDING, None, start=0.0,
            flow_selector=2, extra_latency_us=100.0,
        )
        assert fault.affects_flow(4)
        assert not fault.affects_flow(5)

    def test_symptom_from_catalog(self):
        fault = Fault(IssueType.SWITCH_PORT_DOWN, None, start=0.0)
        assert fault.symptom == Symptom.UNCONNECTIVITY


class TestEffects:
    def test_merge_combines_losses_independently(self):
        merged = Effects(loss_rate=0.5).merge(Effects(loss_rate=0.5))
        assert merged.loss_rate == pytest.approx(0.75)

    def test_merge_sums_latency(self):
        merged = Effects(extra_latency_us=10.0).merge(
            Effects(extra_latency_us=5.0)
        )
        assert merged.extra_latency_us == 15.0

    def test_merge_ors_down(self):
        assert Effects(down=True).merge(Effects()).down
        assert not Effects().merge(Effects()).down


class TestInjection:
    def test_type_checked_targets(self, injector, rnic):
        with pytest.raises(TypeError):
            injector.inject_issue(IssueType.CRC_ERROR, rnic, start=0.0)
        with pytest.raises(TypeError):
            injector.inject_issue(
                IssueType.RNIC_PORT_DOWN, SwitchId("tor", 0), start=0.0
            )

    def test_link_fault_affects_paths_through_it(
        self, injector, cluster, topology
    ):
        link = topology.links()[0]
        injector.inject_issue(IssueType.SWITCH_PORT_DOWN, link, start=0.0)
        rnic_name, tor_name = sorted((link.a, link.b))
        # Build a path containing the link and one avoiding it.
        on_path = UnderlayPath(devices=(link.a, link.b),
                               links=(link,))
        elsewhere = RnicId(HostId(7), 3)    # no fault sits on it
        (met,) = injector.relevant_faults(on_path, elsewhere, elsewhere)
        assert met.effects(1.0).down
        off_path = UnderlayPath.through(["x", "y"])
        assert injector.relevant_faults(off_path, elsewhere, elsewhere) == ()

    def test_rnic_culprits_include_access_link(self, injector, rnic, topology):
        fault = injector.inject_issue(
            IssueType.RNIC_PORT_DOWN, rnic, start=0.0
        )
        tor = topology.tor_of(rnic)
        assert str(LinkId.between(rnic, tor)) in fault.culprits
        assert str(rnic) in fault.culprits

    def test_clear_reverts_effects(self, injector, rnic):
        fault = injector.inject_issue(
            IssueType.RNIC_PORT_DOWN, rnic, start=0.0
        )
        nowhere = UnderlayPath.through(["x", "y"])
        elsewhere = RnicId(HostId(7), 3)
        assert injector.relevant_faults(nowhere, rnic, elsewhere) == (fault,)
        assert injector.relevant_faults(nowhere, elsewhere, rnic) == (fault,)
        assert fault.effects(5.0).down
        injector.clear(fault, at=10.0)
        assert not fault.effects(10.0).down

    def test_ground_truth_union(self, injector, rnic, topology):
        injector.inject_issue(IssueType.RNIC_PORT_DOWN, rnic, start=0.0)
        injector.inject_issue(
            IssueType.SWITCH_OFFLINE, topology.spines[0], start=0.0
        )
        truth = injector.ground_truth(1.0)
        assert str(rnic) in truth
        assert str(topology.spines[0]) in truth


class TestFaultIds:
    def test_unpinned_ids_are_run_local(self, cluster, rnic):
        """Regression: ids used to come from a process-global counter,
        so ground-truth payloads differed between two same-seed runs
        in one process."""
        def run():
            injector = FaultInjector(cluster)
            ids = []
            for start in (10.0, 20.0, 30.0):
                fault = Fault(IssueType.CRC_ERROR, rnic, start=start)
                assert fault.fault_id is None
                ids.append(injector.inject(fault).fault_id)
                injector.clear(fault, at=start + 1.0)
            return ids

        first = run()
        second = run()
        assert first == [0, 1, 2]
        assert first == second

    def test_pinned_ids_are_respected_and_skipped(self, cluster, rnic):
        injector = FaultInjector(cluster)
        pinned = Fault(
            IssueType.CRC_ERROR, rnic, start=0.0, fault_id=0
        )
        injector.inject(pinned)
        fresh = injector.inject(
            Fault(IssueType.CRC_ERROR, rnic, start=1.0)
        )
        assert fresh.fault_id == 1


class TestSideEffects:
    def test_offloading_failure_forces_software_path(
        self, injector, cluster, rnic
    ):
        fault = injector.inject_issue(
            IssueType.OFFLOADING_FAILURE, rnic, start=0.0
        )
        health = cluster.overlay.health(vtep_name(rnic))
        assert health.force_software_path
        injector.clear(fault, at=1.0)
        assert not health.force_software_path

    def test_offloading_failure_demotes_ovs_rules(
        self, injector, cluster, running_task, rnic
    ):
        # Install a flow through the target RNIC first.
        src = running_task.container(1).endpoint(0)
        dst = running_task.container(2).endpoint(0)
        cluster.overlay.ensure_flow(src, dst)
        fault = injector.inject_issue(
            IssueType.OFFLOADING_FAILURE, rnic, start=0.0
        )
        table = cluster.overlay.ovs_table(rnic.host)
        demoted = [r for r in table.rules() if not r.offloaded]
        assert demoted
        injector.clear(fault, at=1.0)
        assert all(r.offloaded for r in table.rules())

    def test_gid_change_removes_and_restores_deliver_rules(
        self, injector, cluster, rnic
    ):
        table = cluster.overlay.ovs_table(rnic.host)
        before = len(table)
        fault = injector.inject_issue(
            IssueType.RNIC_GID_CHANGE, rnic, start=0.0
        )
        assert len(table) < before
        injector.clear(fault, at=1.0)
        assert len(table) == before

    def test_repetitive_offloading_creates_inconsistency(
        self, injector, cluster, rnic
    ):
        from repro.cluster.flowtable import Mismatch, diff_tables

        fault = injector.inject_issue(
            IssueType.REPETITIVE_FLOW_OFFLOADING, rnic, start=0.0
        )
        problems = diff_tables(
            cluster.overlay.ovs_table(rnic.host),
            cluster.overlay.offload_table(rnic),
        )
        assert any(p.kind is Mismatch.INVALIDATED for p in problems)
        injector.clear(fault, at=1.0)
        problems_after = diff_tables(
            cluster.overlay.ovs_table(rnic.host),
            cluster.overlay.offload_table(rnic),
        )
        assert not any(
            p.kind is Mismatch.INVALIDATED for p in problems_after
        )

    def test_container_crash_downs_all_veths(
        self, injector, cluster, running_task
    ):
        from repro.cluster.overlay import veth_name

        container = running_task.container(0)
        fault = injector.inject_issue(
            IssueType.CONTAINER_CRASH, container, start=0.0
        )
        for endpoint in container.endpoints():
            assert cluster.overlay.health(veth_name(endpoint)).down
        injector.clear(fault, at=1.0)
        for endpoint in container.endpoints():
            assert not cluster.overlay.health(veth_name(endpoint)).down

    def test_not_using_rdma_purges_host_hw_tables(
        self, injector, cluster, running_task
    ):
        host = running_task.container(0).host
        fault = injector.inject_issue(
            IssueType.NOT_USING_RDMA, host, start=0.0
        )
        for rnic_obj in cluster.host(host).rnics:
            assert len(cluster.overlay.offload_table(rnic_obj.id)) == 0
        injector.clear(fault, at=1.0)
        total = sum(
            len(cluster.overlay.offload_table(r.id))
            for r in cluster.host(host).rnics
        )
        assert total > 0
