"""Tests for the VXLAN overlay: attachment, forwarding, health flags."""

import pytest

from repro.cluster.flowtable import ActionKind, FlowAction, FlowKey
from repro.cluster.overlay import OverlayError, ovs_name, veth_name, vtep_name


@pytest.fixture
def attached(running_task, cluster):
    """The overlay with all four containers of the task attached."""
    return cluster.overlay, running_task


class TestAttachment:
    def test_vni_assigned_per_task(self, attached):
        overlay, task = attached
        assert overlay.vni_of(task.id) == task.vni

    def test_endpoints_registered_after_attach(self, attached):
        overlay, task = attached
        for endpoint in task.endpoints():
            assert overlay.is_registered(endpoint)

    def test_deliver_rules_installed_per_endpoint(self, attached, cluster):
        overlay, task = attached
        sizes = overlay.flow_table_sizes()
        container = task.container(0)
        assert sizes[container.host] >= container.num_endpoints

    def test_detach_removes_rules_and_registration(
        self, attached, orchestrator
    ):
        overlay, task = attached
        container = task.container(0)
        endpoints = container.endpoints()
        orchestrator.terminate_task(task.id)
        for endpoint in endpoints:
            assert not overlay.is_registered(endpoint)

    def test_overlay_ip_unique_within_task(self, attached):
        overlay, task = attached
        ips = {overlay.overlay_ip(e) for e in task.endpoints()}
        assert len(ips) == len(task.endpoints())

    def test_record_of_unattached_raises(self, attached):
        from repro.cluster.identifiers import ContainerId, EndpointId, TaskId

        overlay, _ = attached
        with pytest.raises(OverlayError):
            overlay.record_of(EndpointId(ContainerId(TaskId(99), 0), 0))


class TestForwarding:
    def test_trace_reaches_cross_host(self, attached):
        overlay, task = attached
        src = task.container(0).endpoint(0)
        dst = task.container(1).endpoint(0)
        trace = overlay.trace(src, dst)
        assert trace.reached
        assert not trace.loop
        assert not trace.software_path

    def test_trace_installs_encap_on_first_use(self, attached):
        overlay, task = attached
        src = task.container(0).endpoint(1)
        dst = task.container(2).endpoint(1)
        host = task.container(0).host
        before = len(overlay.ovs_table(host))
        overlay.trace(src, dst, install_missing=True)
        assert len(overlay.ovs_table(host)) == before + 1

    def test_readonly_trace_does_not_install(self, attached):
        overlay, task = attached
        src = task.container(0).endpoint(2)
        dst = task.container(3).endpoint(2)
        host = task.container(0).host
        before = len(overlay.ovs_table(host))
        trace = overlay.trace(src, dst, install_missing=False)
        assert not trace.reached
        assert len(overlay.ovs_table(host)) == before

    def test_trace_records_rnics(self, attached):
        overlay, task = attached
        src = task.container(0).endpoint(0)
        dst = task.container(1).endpoint(0)
        trace = overlay.trace(src, dst)
        assert trace.src_rnic == overlay.rnic_of(src)
        assert trace.dst_rnic == overlay.rnic_of(dst)

    def test_veth_down_blocks_at_source(self, attached):
        overlay, task = attached
        src = task.container(0).endpoint(0)
        dst = task.container(1).endpoint(0)
        overlay.health(veth_name(src)).down = True
        trace = overlay.trace(src, dst)
        assert not trace.reached
        assert trace.failure_component == veth_name(src)

    def test_dst_veth_down_blocks_at_destination(self, attached):
        overlay, task = attached
        src = task.container(0).endpoint(0)
        dst = task.container(1).endpoint(0)
        overlay.health(veth_name(dst)).down = True
        trace = overlay.trace(src, dst)
        assert not trace.reached
        assert trace.failure_component == veth_name(dst)

    def test_missing_deliver_rule_blackholes_at_dst_ovs(self, attached):
        overlay, task = attached
        src = task.container(0).endpoint(0)
        dst = task.container(1).endpoint(0)
        overlay.trace(src, dst)  # install forward flow
        vni = overlay.vni_of(task.id)
        key = FlowKey(vni, overlay.overlay_ip(dst))
        overlay.ovs_table(task.container(1).host).remove(key)
        trace = overlay.trace(src, dst)
        assert not trace.reached
        assert trace.failure_component == ovs_name(task.container(1).host)

    def test_corrupt_encap_to_self_forms_loop(self, attached, cluster):
        overlay, task = attached
        src = task.container(0).endpoint(0)
        dst = task.container(1).endpoint(0)
        overlay.trace(src, dst)
        vni = overlay.vni_of(task.id)
        key = FlowKey(vni, overlay.overlay_ip(dst))
        src_rnic = overlay.rnic_of(src)
        # Redirect the flow back at the source host itself.
        overlay.ovs_table(task.container(0).host).install(
            key, FlowAction(
                ActionKind.ENCAP,
                remote_underlay_ip=overlay.underlay_ip_of(src_rnic),
            )
        )
        # Read-only walk: the data plane's slow path would repair the
        # rule, but the reachability analysis must expose the loop.
        trace = overlay.trace(src, dst, install_missing=False)
        assert trace.loop
        assert not trace.reached
        # Caught on the host's second visit, not at the hop limit.
        assert [hop.note for hop in trace.hops] == [
            "", "", "", "forwarding loop"
        ]
        assert trace.hops[-1].component == ovs_name(task.container(0).host)

    def test_software_path_flag_via_health(self, attached):
        overlay, task = attached
        src = task.container(0).endpoint(0)
        dst = task.container(1).endpoint(0)
        overlay.health(vtep_name(overlay.rnic_of(src))).force_software_path \
            = True
        trace = overlay.trace(src, dst)
        assert trace.reached
        assert trace.software_path

    def test_software_path_on_hw_table_miss(self, attached):
        overlay, task = attached
        src = task.container(0).endpoint(0)
        dst = task.container(1).endpoint(0)
        overlay.trace(src, dst)
        vni = overlay.vni_of(task.id)
        key = FlowKey(vni, overlay.overlay_ip(dst))
        overlay.offload_table(overlay.rnic_of(src)).invalidate(key)
        trace = overlay.trace(src, dst)
        assert trace.reached
        assert trace.software_path

    def test_a_healthy_hop_is_shared_and_says_its_own_path(self, attached):
        # One hop object per (component, path taken): the VTEP crossed
        # in hardware and then in software gives two, never one reused.
        overlay, task = attached
        src = task.container(0).endpoint(0)
        dst = task.container(1).endpoint(0)
        first = overlay.trace(src, dst)
        again = overlay.trace(src, dst)
        assert all(a is b for a, b in zip(first.hops, again.hops))
        overlay.health(vtep_name(overlay.rnic_of(src))).force_software_path \
            = True
        soft = overlay.trace(src, dst)
        assert [hop.software_path for hop in first.hops] == [
            False, False, False, False, False, False
        ]
        assert [hop.software_path for hop in soft.hops] == [
            False, False, True, False, False, False
        ]
        assert soft.hops[2] is not first.hops[2]
        assert soft.hops[2].component == first.hops[2].component


class TestEnsureFlow:
    def test_cross_task_flow_rejected(self, attached, orchestrator, engine):
        overlay, task = attached
        other = orchestrator.submit_task(1, 4, instant_startup=True)
        engine.run_until(engine.now)
        with pytest.raises(OverlayError):
            overlay.ensure_flow(
                task.container(0).endpoint(0),
                other.container(0).endpoint(0),
            )

    def test_cross_task_echo_rejected_even_from_a_downed_veth(
        self, attached, orchestrator, engine
    ):
        # A downed source veth stops the forward walk before it checks
        # tenancy; the echo reply's install must still refuse.
        overlay, task = attached
        other = orchestrator.submit_task(1, 4, instant_startup=True)
        engine.run_until(engine.now)
        src, dst = task.container(0).endpoint(0), other.container(0).endpoint(0)
        overlay.health(veth_name(src)).down = True
        assert not overlay.trace(src, dst).reached
        sizes = overlay.flow_table_sizes()
        with pytest.raises(OverlayError):
            overlay.echo_flow(src, dst)
        assert overlay.flow_table_sizes() == sizes

    def test_unregistered_destination_returns_none(
        self, attached, orchestrator
    ):
        overlay, task = attached
        src = task.container(0).endpoint(0)
        dst = task.container(1).endpoint(0)
        orchestrator.terminate_task(task.id)
        assert overlay.ensure_flow(src, dst) is None

    def test_ensure_flow_offloads_by_default(self, attached):
        overlay, task = attached
        src = task.container(0).endpoint(3)
        dst = task.container(1).endpoint(3)
        key = overlay.ensure_flow(src, dst)
        rule = overlay.ovs_table(task.container(0).host).lookup(key)
        assert rule.offloaded
        assert rule.offloaded_to == str(overlay.rnic_of(src))

    def test_ensure_flow_respects_software_path_flag(self, attached):
        overlay, task = attached
        src = task.container(0).endpoint(3)
        dst = task.container(2).endpoint(3)
        overlay.health(vtep_name(overlay.rnic_of(src))).force_software_path \
            = True
        key = overlay.ensure_flow(src, dst)
        rule = overlay.ovs_table(task.container(0).host).lookup(key)
        assert not rule.offloaded


class TestTraceEdgeCases:
    def test_hop_limit_flags_loop(self, attached, cluster):
        """A chain of hosts bouncing the packet forever trips max_hops."""
        overlay, task = attached
        src = task.container(0).endpoint(0)
        dst = task.container(1).endpoint(0)
        overlay.trace(src, dst)  # install forward state
        vni = overlay.vni_of(task.id)
        key = FlowKey(vni, overlay.overlay_ip(dst))
        # Bounce between hosts 2 and 3 (neither owns the destination).
        host2 = task.container(2).host
        host3 = task.container(3).host
        rnic2 = overlay.rnic_of(task.container(2).endpoint(0))
        rnic3 = overlay.rnic_of(task.container(3).endpoint(0))
        overlay.ovs_table(task.container(0).host).install(
            key, FlowAction(
                ActionKind.ENCAP,
                remote_underlay_ip=overlay.underlay_ip_of(rnic2),
            ),
        )
        overlay.ovs_table(host2).install(
            key, FlowAction(
                ActionKind.ENCAP,
                remote_underlay_ip=overlay.underlay_ip_of(rnic3),
            ),
        )
        overlay.ovs_table(host3).install(
            key, FlowAction(
                ActionKind.ENCAP,
                remote_underlay_ip=overlay.underlay_ip_of(rnic2),
            ),
        )
        trace = overlay.trace(src, dst, install_missing=False)
        assert trace.loop
        assert not trace.reached

    def test_encap_to_unknown_underlay_ip_blackholes(
        self, attached
    ):
        overlay, task = attached
        src = task.container(0).endpoint(0)
        dst = task.container(1).endpoint(0)
        overlay.trace(src, dst)
        vni = overlay.vni_of(task.id)
        key = FlowKey(vni, overlay.overlay_ip(dst))
        overlay.ovs_table(task.container(0).host).install(
            key, FlowAction(
                ActionKind.ENCAP, remote_underlay_ip="203.0.113.99"
            ),
        )
        trace = overlay.trace(src, dst, install_missing=False)
        assert not trace.reached
        assert "underlay:203.0.113.99" in trace.failure_component

    def test_delivery_to_wrong_vf_detected(self, attached, cluster):
        overlay, task = attached
        src = task.container(0).endpoint(0)
        dst = task.container(1).endpoint(0)
        other = task.container(1).endpoint(1)
        overlay.trace(src, dst)
        vni = overlay.vni_of(task.id)
        key = FlowKey(vni, overlay.overlay_ip(dst))
        wrong_vf = task.container(1).vf_of(other)
        overlay.ovs_table(task.container(1).host).install(
            key, FlowAction(ActionKind.DELIVER, local_vf=wrong_vf),
        )
        trace = overlay.trace(src, dst, install_missing=False)
        assert not trace.reached
        failing = next(h for h in trace.hops if not h.ok)
        assert "wrong VF" in failing.note

    def test_trace_from_unattached_source(self, attached):
        from repro.cluster.identifiers import (
            ContainerId, EndpointId, TaskId,
        )

        overlay, task = attached
        ghost = EndpointId(ContainerId(task.id, 99), 0)
        dst = task.container(0).endpoint(0)
        trace = overlay.trace(ghost, dst)
        assert not trace.reached
        assert "not attached" in trace.hops[0].note
