"""Tests for Algorithm-1 localization over synthetic failure events."""

import pytest

from repro.cluster.topology import UnderlayPath
from repro.core.analyzer import FailureEvent
from repro.core.localization import Localizer
from repro.core.pinglist import ProbePair
from repro.network.fabric import DataPlaneFabric
from repro.network.faults import FaultInjector
from repro.network.issues import ComponentClass, IssueType, Symptom


@pytest.fixture
def stack(cluster, running_task, rng):
    injector = FaultInjector(cluster)
    fabric = DataPlaneFabric(cluster, injector, rng)
    localizer = Localizer(cluster, fabric)
    return cluster, running_task, injector, fabric, localizer


def pair_of(task, src_rank, dst_rank, slot=0):
    return ProbePair.canonical(
        task.container(src_rank).endpoint(slot),
        task.container(dst_rank).endpoint(slot),
    )


def event(pair, symptom=Symptom.UNCONNECTIVITY, at=100.0):
    return FailureEvent(pair=pair, first_detected_at=at, symptom=symptom)


def warm_flows(fabric, task, pairs):
    for pair in pairs:
        fabric.send_probe(pair.src, pair.dst, at=0.0)


class TestOverlayLayer:
    def test_container_crash_blames_container_runtime(self, stack):
        cluster, task, injector, fabric, localizer = stack
        pair = pair_of(task, 0, 1)
        warm_flows(fabric, task, [pair])
        injector.inject_issue(
            IssueType.CONTAINER_CRASH, task.container(1), start=50.0
        )
        report = localizer.localize([event(pair)])
        diagnosis = report.diagnoses[0]
        assert diagnosis.component == f"container:{task.container(1).id}"
        assert diagnosis.component_class == ComponentClass.CONTAINER_RUNTIME
        assert diagnosis.layer == "overlay"

    def test_gid_change_blames_host_kernel(self, stack):
        cluster, task, injector, fabric, localizer = stack
        pair = pair_of(task, 0, 1)
        warm_flows(fabric, task, [pair])
        rnic = cluster.overlay.rnic_of(task.container(1).endpoint(0))
        injector.inject_issue(IssueType.RNIC_GID_CHANGE, rnic, start=50.0)
        report = localizer.localize([event(pair)])
        diagnosis = report.diagnoses[0]
        assert diagnosis.component == f"host:{rnic.host}"
        assert diagnosis.component_class == ComponentClass.KERNEL

    def test_healthy_pair_yields_no_overlay_diagnosis(self, stack):
        cluster, task, injector, fabric, localizer = stack
        pair = pair_of(task, 0, 1)
        warm_flows(fabric, task, [pair])
        report = localizer.localize(
            [event(pair, Symptom.HIGH_LATENCY)]
        )
        assert all(d.layer != "overlay" for d in report.diagnoses)


class TestUnderlayLayer:
    def test_link_fault_voted_by_multiple_pairs(self, stack):
        cluster, task, injector, fabric, localizer = stack
        pairs = [pair_of(task, s, 1) for s in (0, 2, 3)]
        warm_flows(fabric, task, pairs)
        rnic = cluster.overlay.rnic_of(task.container(1).endpoint(0))
        fault = injector.inject_issue(
            IssueType.RNIC_PORT_DOWN, rnic, start=50.0
        )
        report = localizer.localize([event(p) for p in pairs])
        assert report.diagnoses
        assert any(
            d.component in fault.culprits for d in report.diagnoses
        )

    def test_single_event_skips_tomography(self, stack):
        cluster, task, injector, fabric, localizer = stack
        pair = pair_of(task, 0, 1)
        warm_flows(fabric, task, [pair])
        report = localizer.localize([event(pair)])
        assert all(d.layer != "underlay" for d in report.diagnoses)

    def test_healthy_pairs_exonerate_for_hard_failures(self, stack):
        cluster, task, injector, fabric, localizer = stack
        failing = [pair_of(task, 0, 1), pair_of(task, 2, 1)]
        healthy = [pair_of(task, 0, 2), pair_of(task, 0, 3)]
        warm_flows(fabric, task, failing + healthy)
        rnic = cluster.overlay.rnic_of(task.container(1).endpoint(0))
        fault = injector.inject_issue(
            IssueType.RNIC_HARDWARE_FAILURE, rnic, start=50.0
        )
        report = localizer.localize(
            [event(p) for p in failing], healthy_pairs=healthy
        )
        assert any(
            d.component in fault.culprits for d in report.diagnoses
        )
        # The shared ToR must not be blamed: healthy pairs crossed it.
        tor = str(cluster.topology.tor_of(rnic))
        assert all(d.component != tor for d in report.diagnoses)

    def test_device_verdict_blames_only_pairs_transiting_it(
        self, stack, monkeypatch
    ):
        cluster, task, injector, fabric, localizer = stack
        pairs = [pair_of(task, 0, 1, slot=slot) for slot in range(4)]
        warm_flows(fabric, task, pairs)
        # The PFC-storm shape, as traced routes: three pairs cross
        # different links of spine-0, a fourth goes through spine-1.
        routes = {
            (pair.src, pair.dst): UnderlayPath.through([
                f"host-0/rnic-{i}", f"tor-{i}",
                "spine-1" if i == 3 else "spine-0",
                f"tor-{i + 4}", f"host-1/rnic-{i}",
            ])
            for i, pair in enumerate(pairs)
        }
        monkeypatch.setattr(
            fabric, "path_distribution",
            lambda src, dst: [routes[src, dst]],
        )
        report = localizer.localize(
            [event(p, Symptom.HIGH_LATENCY) for p in pairs]
        )
        underlay = [d for d in report.diagnoses if d.layer == "underlay"]
        assert [d.component for d in underlay] == ["spine-0"]
        assert underlay[0].pairs == tuple(sorted(pairs[:3]))


class TestRnicValidationLayer:
    def test_single_pair_inconsistency_found_by_dump(self, stack):
        cluster, task, injector, fabric, localizer = stack
        pair = pair_of(task, 0, 1)
        warm_flows(fabric, task, [pair])
        rnic = cluster.overlay.rnic_of(pair.src)
        fault = injector.inject_issue(
            IssueType.REPETITIVE_FLOW_OFFLOADING, rnic, start=50.0
        )
        report = localizer.localize(
            [event(pair, Symptom.HIGH_LATENCY)]
        )
        assert any(
            d.layer == "rnic" and d.component in fault.culprits
            for d in report.diagnoses
        )

    def test_whole_host_software_path_blames_vswitch(self, stack):
        cluster, task, injector, fabric, localizer = stack
        pairs = [pair_of(task, 0, 1, slot=s) for s in (0, 1)]
        warm_flows(fabric, task, pairs)
        host = task.container(0).host
        fault = injector.inject_issue(
            IssueType.NOT_USING_RDMA, host, start=50.0
        )
        report = localizer.localize(
            [event(pairs[0], Symptom.HIGH_LATENCY)]
        )
        assert any(
            d.component in fault.culprits
            and d.component_class == ComponentClass.VIRTUAL_SWITCH
            for d in report.diagnoses
        )


class TestHostFallback:
    def test_host_fault_promoted_from_tomography(self, stack):
        # Multiple slow pairs fanning out of one host: the underlay vote
        # concentrates on that host's leaf links and promotes the host.
        cluster, task, injector, fabric, localizer = stack
        pairs = [pair_of(task, 0, d, slot=s)
                 for d in (1, 2) for s in (0, 1)]
        warm_flows(fabric, task, pairs)
        report = localizer.localize(
            [event(p, Symptom.HIGH_LATENCY) for p in pairs]
        )
        host_name = f"host:{task.container(0).host}"
        assert any(d.component == host_name for d in report.diagnoses)

    def test_single_unexplained_event_falls_back_to_host(self, stack):
        # One slow pair, no overlay break, too little path evidence for
        # tomography, clean flow tables: hand it to host fine-checking.
        cluster, task, injector, fabric, localizer = stack
        pair = pair_of(task, 0, 1)
        warm_flows(fabric, task, [pair])
        report = localizer.localize([event(pair, Symptom.HIGH_LATENCY)])
        host_diagnoses = [
            d for d in report.diagnoses if d.layer == "host"
        ]
        assert host_diagnoses
        assert host_diagnoses[0].confidence < 1.0
        hosts = {
            f"host:{task.container(0).host}",
            f"host:{task.container(1).host}",
        }
        assert host_diagnoses[0].component in hosts

    def test_empty_event_list(self, stack):
        *_, localizer = stack
        report = localizer.localize([])
        assert report.diagnoses == []
        assert report.unexplained == []


class TestLoopDiagnosis:
    def test_forwarding_loop_blamed_on_virtual_switch(self, stack):
        from repro.cluster.flowtable import ActionKind, FlowAction, FlowKey

        cluster, task, injector, fabric, localizer = stack
        pair = pair_of(task, 0, 1)
        warm_flows(fabric, task, [pair])
        # Corrupt the source OVS: encap the flow back at the source.
        overlay = cluster.overlay
        vni = overlay.vni_of(task.id)
        key = FlowKey(vni, overlay.overlay_ip(pair.dst))
        src_rnic = overlay.rnic_of(pair.src)
        overlay.ovs_table(task.container(0).host).install(
            key, FlowAction(
                ActionKind.ENCAP,
                remote_underlay_ip=overlay.underlay_ip_of(src_rnic),
            ),
        )
        report = localizer.localize([event(pair)])
        diagnosis = report.diagnoses[0]
        assert diagnosis.component_class == ComponentClass.VIRTUAL_SWITCH
        assert "loop" in diagnosis.evidence


class TestCongestionSwitchPromotion:
    def test_latency_events_promote_shared_switch(self, stack):
        cluster, task, injector, fabric, localizer = stack
        # A balanced pair set: every leaf link collects the same vote
        # count, so the only shared device among the top links is the
        # ToR they all meet at.
        pairs = [pair_of(task, a, b) for a, b in
                 ((0, 1), (2, 3), (0, 2), (1, 3))]
        warm_flows(fabric, task, pairs)
        rnic = cluster.overlay.rnic_of(task.container(0).endpoint(0))
        tor = cluster.topology.tor_of(rnic)
        fault = injector.inject_issue(
            IssueType.CONGESTION_CONTROL_ISSUE, tor, start=50.0
        )
        report = localizer.localize(
            [event(p, Symptom.HIGH_LATENCY) for p in pairs]
        )
        assert any(
            d.component == str(tor) for d in report.diagnoses
        )
        assert any(
            d.component in fault.culprits for d in report.diagnoses
        )


class TestRouteSelection:
    """Which routes the one underlay arm hands to the vote."""

    @pytest.fixture
    def voted(self, stack, monkeypatch):
        """Every ``vote`` call's (failing, healthy, keywords)."""
        localizer = stack[-1]
        calls = []
        real = localizer.intersection.vote

        def spy(failing, healthy=(), **keywords):
            calls.append((failing, list(healthy), keywords))
            return real(failing, healthy, **keywords)

        monkeypatch.setattr(localizer.intersection, "vote", spy)
        return calls

    @staticmethod
    def cross_rail(fabric, task):
        # Slot 0 -> slot 1 changes rail, so the route crosses a spine
        # and spraying has two candidates to spread over.
        failing = [
            ProbePair.canonical(
                task.container(src).endpoint(0),
                task.container(1).endpoint(1),
            )
            for src in (0, 2)
        ]
        healthy = ProbePair.canonical(
            task.container(3).endpoint(0), task.container(1).endpoint(1)
        )
        warm_flows(fabric, task, failing + [healthy])
        return failing, healthy

    def test_spraying_fabric_votes_by_mass_over_distributions(
        self, stack, voted
    ):
        cluster, task, injector, fabric, localizer = stack
        failing, healthy = self.cross_rail(fabric, task)
        fabric.set_ecmp_mode("spray")
        localizer.localize(
            [event(p, Symptom.PACKET_LOSS) for p in failing],
            healthy_pairs=[healthy],
        )
        (dists, healthy_dists, keywords), = voted
        assert keywords["weighted"] is True
        assert dists == [
            fabric.path_distribution(p.src, p.dst) for p in failing
        ]
        assert [len(d) for d in dists + healthy_dists] == [2, 2, 2]

    def test_static_fabric_votes_by_count_on_the_pinned_pick(
        self, stack, voted
    ):
        """Under static ECMP the path distribution is the one pinned
        pick ``traceroute`` reveals, and the count rule reads it."""
        cluster, task, injector, fabric, localizer = stack
        failing, healthy = self.cross_rail(fabric, task)
        localizer.localize(
            [event(p, Symptom.PACKET_LOSS) for p in failing],
            healthy_pairs=[healthy],
        )
        (dists, healthy_dists, keywords), = voted
        assert keywords == {"exonerate": False, "weighted": False}
        assert dists == [
            [fabric.traceroute(p.src, p.dst)] for p in failing
        ]
        assert healthy_dists == [
            [fabric.traceroute(healthy.src, healthy.dst)]
        ]


class TestRoundStep:
    """``Localizer.localize_open``: the step every round loop shares,
    and the localizer's own ledger of what it localized."""

    @staticmethod
    def recording(localizer):
        """``localizer.localize`` replaced by a recorder of its calls."""
        calls = []

        def localize(events, healthy_pairs=(), now=0.0):
            calls.append((list(events), list(healthy_pairs), now))
            return "report"

        localizer.localize = localize
        return calls

    def test_fresh_gates_the_run_but_every_open_event_votes(self, stack):
        _, running_task, _, _, localizer = stack
        old, new, idle = (pair_of(running_task, 0, r) for r in (1, 2, 3))
        open_events = [event(old, at=90.0), event(new, at=100.0)]
        localizer.localized.add(open_events[0].key)
        asked = []

        def universe(fresh):
            asked.append(list(fresh))
            return [old, new, idle]

        calls = self.recording(localizer)
        fresh, report = localizer.localize_open(
            open_events, universe, 100.0
        )
        assert (fresh, report) == ([open_events[1]], "report")
        assert asked == [[open_events[1]]]
        # The still-open old incident votes, and is not healthy mass.
        assert calls == [(open_events, [idle], 100.0)]
        assert localizer.localized == {e.key for e in open_events}

        # Nothing fresh: no universe built, no vote.
        assert localizer.localize_open(
            open_events, universe, 102.0
        ) == ([], None)
        assert len(asked) == len(calls) == 1

    def test_each_localizer_localizes_an_event_once(self, stack):
        """The same open events a round later return ``([], None)``; a
        fresh event brings every open event back into the batch; a
        second localizer keeps its own ledger and localizes them all."""
        cluster, running_task, _, fabric, localizer = stack
        first, second, idle = (
            pair_of(running_task, 0, r) for r in (1, 2, 3)
        )

        def universe(fresh):
            return [first, second, idle]

        calls = self.recording(localizer)
        opened = [event(first, at=90.0)]
        assert localizer.localize_open(opened, universe, 90.0) == (
            opened, "report"
        )
        assert localizer.localize_open(opened, universe, 92.0) == (
            [], None
        )
        opened.append(event(second, at=94.0))
        assert localizer.localize_open(opened, universe, 94.0) == (
            [opened[1]], "report"
        )
        assert localizer.localize_open(opened, universe, 96.0) == (
            [], None
        )
        assert calls == [
            ([opened[0]], [second, idle], 90.0),
            (opened, [idle], 94.0),
        ]
        other = Localizer(cluster, fabric)
        other_calls = self.recording(other)
        assert other.localize_open(opened, universe, 96.0) == (
            opened, "report"
        )
        assert other_calls == [(opened, [idle], 96.0)]
        assert other.localized == localizer.localized == {
            e.key for e in opened
        }
