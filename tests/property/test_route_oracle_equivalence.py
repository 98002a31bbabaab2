"""One fault-meets-route predicate, held to the two it replaced.

``FaultInjector.relevant_faults`` (what a probe resolution caches) and
``core.evaluation.fault_affects_pair`` (what every score is computed
from) each used to carry their own isinstance ladder over the fault's
target; both now ask :meth:`Fault.face_on` and compare identifiers.
The bodies they had at commit d1b7e5c are kept here verbatim as
oracles, and compared over the whole catalogue: every issue at its
standard target (the gray families also on a ToR–spine link) against
every monitored pair of the 4 x 4 campaign scenario.
"""

from typing import List

import pytest

from repro.cluster.container import Container
from repro.cluster.identifiers import (
    ContainerId,
    EndpointId,
    HostId,
    LinkId,
    RnicId,
    SwitchId,
)
from repro.cluster.overlay import OverlayError
from repro.core.evaluation import fault_affects_pair
from repro.core.pinglist import ProbePair
from repro.network.faults import Fault
from repro.network.issues import GrayIssueType, IssueType

from tests.network.test_fault_catalogue import (
    campaign_scenario,
    catalogue_targets,
)


# ----------------------------------------------------------------------
# The oracles: the parent's bodies, verbatim (``self._faults.values()``
# spelled ``faults``).
# ----------------------------------------------------------------------


def parent_relevant_faults(faults, path, src_rnic, dst_rnic):
    link_set = set(path.links)
    switch_set = set(path.switches())
    on_path: List[object] = []
    on_src_rnic: List[Fault] = []
    on_dst_rnic: List[Fault] = []
    on_src_host: List[Fault] = []
    on_dst_host: List[Fault] = []
    for fault in faults:
        target = fault.target
        if isinstance(target, LinkId):
            if target in link_set:
                on_path.append(fault)
            elif fault.victim_links and not (
                fault.victim_links.isdisjoint(link_set)
            ):
                # Victim-only hit: cache the secondary-effect view.
                on_path.append(fault.victim_view())
        elif isinstance(target, SwitchId):
            if str(target) in switch_set:
                on_path.append(fault)
        elif isinstance(target, RnicId):
            if target == src_rnic:
                on_src_rnic.append(fault)
            if target == dst_rnic:
                on_dst_rnic.append(fault)
        elif isinstance(target, HostId):
            if target == src_rnic.host:
                on_src_host.append(fault)
            if target == dst_rnic.host:
                on_dst_host.append(fault)
    return tuple(
        on_path + on_src_rnic + on_dst_rnic + on_src_host + on_dst_host
    )


def parent_fault_affects_pair(fault, pair, cluster, fabric):
    target = fault.target
    overlay = cluster.overlay
    try:
        src_rnic = overlay.rnic_of(pair.src)
        dst_rnic = overlay.rnic_of(pair.dst)
    except (OverlayError, KeyError):
        return False

    if isinstance(target, RnicId):
        return target in (src_rnic, dst_rnic)
    if isinstance(target, HostId):
        return target in (src_rnic.host, dst_rnic.host)
    if isinstance(target, Container):
        return target.id in (pair.src.container, pair.dst.container)
    paths = fabric.path_distribution(pair.src, pair.dst)
    if not paths:
        return False
    if isinstance(target, LinkId):
        for path in paths:
            if target in path.links:
                return True
            if fault.victim_links and not (
                fault.victim_links.isdisjoint(path.links)
            ):
                return True
        return False
    if isinstance(target, SwitchId):
        return any(str(target) in path.switches() for path in paths)
    return False


# ----------------------------------------------------------------------
# The campaign, all of it at once
# ----------------------------------------------------------------------


def build_campaign(hosts_per_segment, ecmp_mode="static"):
    """The campaign scenario with all 25 catalogue faults live in its
    injector, so every tuple also pins the order *between* faults —
    as `repro campaign` lays it out (four hosts under one ToR per rail:
    every route is RNIC-ToR-RNIC) and over two segments, where routes
    cross a spine and spraying has four candidates to choose from."""
    scenario = campaign_scenario(hosts_per_segment, ecmp_mode)
    pairs = scenario.hunter.monitored_pairs()
    faults = [
        scenario.inject(issue, target)
        for issue, target in catalogue_targets(scenario)
    ]
    if hosts_per_segment == 2:
        # The standard link target is an access link; add a storm on an
        # uplink a monitored pair is pinned to, and that spine offline.
        pinned = next(
            path for path in (
                scenario.fabric.traceroute(pair.src, pair.dst)
                for pair in pairs
            ) if path.hops == 4
        )
        spine = next(
            s for s in scenario.topology.spines if str(s) == pinned.devices[2]
        )
        faults.append(
            scenario.inject(GrayIssueType.PFC_STORM, pinned.links[1])
        )
        faults.append(scenario.inject(IssueType.SWITCH_OFFLINE, spine))
    return scenario, pairs, faults


@pytest.fixture(scope="module", params=[4, 2], ids=["one-tor", "two-tors"])
def campaign(request):
    """The campaign on a static-ECMP fabric."""
    return build_campaign(request.param)


def same(left, right):
    """Equal tuples: same length, same objects, same order."""
    return len(left) == len(right) and all(
        a is b for a, b in zip(left, right)
    )


def test_relevant_faults_equal_the_parents_tuples(campaign):
    scenario, pairs, faults = campaign
    injector, overlay = scenario.injector, scenario.cluster.overlay
    assert injector.all_faults() == faults and len(pairs) == 24
    met, victim_views = set(), 0
    for pair in pairs:
        src, dst = overlay.rnic_of(pair.src), overlay.rnic_of(pair.dst)
        # Every ECMP candidate: the static pick and what spraying adds.
        for path in scenario.topology.ecmp_paths(src, dst):
            got = injector.relevant_faults(path, src, dst)
            assert same(got, parent_relevant_faults(faults, path, src, dst))
            met.update(id(face) for face in got)
            victim_views += sum(not isinstance(f, Fault) for f in got)
    # Anti-vacuous: every species a probe can meet showed up, and some
    # paths met a storm only through a victim link.
    species = {
        type(fault.target) for fault in faults if id(fault) in met
    }
    assert species == {LinkId, SwitchId, RnicId, HostId}
    assert victim_views > 0


def test_a_same_host_pair_meets_a_host_fault_twice(campaign):
    scenario, _, faults = campaign
    host_faults = [f for f in faults if isinstance(f.target, HostId)]
    host = host_faults[0].target
    src, dst = RnicId(host, 0), RnicId(host, 1)
    (path,) = scenario.topology.ecmp_paths(src, src)    # zero hops
    got = scenario.injector.relevant_faults(path, src, dst)
    assert same(got, parent_relevant_faults(faults, path, src, dst))
    on_hosts = [f for f in got if isinstance(f.target, HostId)]
    assert len(host_faults) == 5
    assert on_hosts == host_faults + host_faults    # src host, dst host
    # RNICs before hosts, whatever the injection order.
    kinds = [type(f.target) for f in got]
    assert kinds.index(HostId) > max(
        i for i, kind in enumerate(kinds) if kind is RnicId
    )


def affected_pairs(campaign):
    """``{(fault index, pair): affected}`` on the campaign's fabric,
    each verdict checked against the oracle's."""
    scenario, pairs, faults = campaign
    cluster, fabric = scenario.cluster, scenario.fabric
    stranger = ProbePair.canonical(
        pairs[0].src, EndpointId(ContainerId(scenario.task.id, 99), 0)
    )
    verdicts = {}
    for index, fault in enumerate(faults):
        for pair in pairs + [stranger]:
            got = fault_affects_pair(fault, pair, cluster, fabric)
            assert got is parent_fault_affects_pair(
                fault, pair, cluster, fabric
            ), (fabric.ecmp_mode, fault.issue, pair)
            verdicts[index, pair] = got
        assert not verdicts.pop((index, stranger))
    return verdicts


def test_fault_affects_pair_equals_the_parents_booleans(campaign):
    scenario, pairs, faults = campaign
    # The mode is fixed when a fabric is built: the sprayed campaign is
    # its own world, laid out exactly as the static one.
    sprayed = build_campaign(scenario.topology.hosts_per_segment, "spray")
    assert sprayed[1] == pairs and len(sprayed[2]) == len(faults)
    static = affected_pairs(campaign)
    spray = affected_pairs(sprayed)
    one_tor = scenario.topology.hosts_per_segment == 4
    # Anti-vacuous: where routes cross the spines, every fault touches
    # some pair and spares another.  (Under one ToR per rail a ToR
    # fault spares none and an uplink fault touches none.)
    for index, fault in enumerate(faults):
        touched = {static[index, pair] for pair in pairs}
        assert one_tor or touched == {True, False}, fault.issue
    # Spraying only ever adds affected pairs — a sprayed pair is hit by
    # a link it crosses some of the time — and where routes cross a
    # spine it does add some.
    assert all(spray[key] for key in static if static[key])
    widened = sum(spray[key] and not static[key] for key in static)
    assert (widened > 0) == (not one_tor)
