"""Property: a fault marks by lookup exactly the entries a scan would.

The resolution cache finds the entries a fault meets through its index
— the interned paths through a link or switch target (and any victim
link), the RNICs of an RNIC or host target — instead of asking
:meth:`Fault.meets` of every cached entry.  The oracle is that scan:
on every inject and every clear, the entries the cache newly marks
``epoch_changed`` must be exactly the live, reached entries not already
``epoch_changed`` that :meth:`Fault.meets`.  Faults land on RNICs,
hosts, access links, uplinks (a PFC storm, with its victim links),
switches and containers, steady or flapping, under static ECMP and
spraying, on a warm cache, after a migration has left replaced entries'
registrations behind, and after a sweep has dropped them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.identifiers import LinkId
from repro.network.faults import _PARAMS, Fault
from repro.network.issues import GrayIssueType, IssueType
from repro.workloads.scenarios import build_scenario

#: Issues whose inject and clear act through the fault alone (no table
#: or health side effect that would mark entries of its own), by the
#: species of target they take.
_ISSUES = {
    "rnic": (
        IssueType.RNIC_PORT_DOWN, IssueType.RNIC_PORT_FLAPPING,
        IssueType.RNIC_FIRMWARE_NOT_RESPONDING,
    ),
    "host": (IssueType.PCIE_NIC_ERROR, IssueType.HUGEPAGE_MISCONFIGURATION),
    "access": (IssueType.CRC_ERROR, IssueType.SWITCH_PORT_FLAPPING),
    "uplink": (GrayIssueType.PFC_STORM, IssueType.SWITCH_PORT_DOWN),
    "switch": (IssueType.SWITCH_OFFLINE, IssueType.CONGESTION_CONTROL_ISSUE),
}


def _build(ecmp_mode):
    scenario = build_scenario(
        num_containers=6, gpus_per_container=4, pp=2, seed=2,
        hosts_per_segment=4, ecmp_mode=ecmp_mode, start_monitoring=False,
    )
    pairs = scenario.hunter.controller.ping_list_of(
        scenario.task.id
    ).active_pairs()
    return scenario, pairs


def _targets(scenario, kind):
    topology = scenario.topology
    links = topology.links()
    if kind == "rnic":
        return [
            scenario.cluster.overlay.rnic_of(endpoint)
            for endpoint in scenario.task.endpoints()
        ]
    if kind == "host":
        return sorted({
            container.host for container in scenario.task.all_containers()
        })
    if kind == "access":
        return [link for link in links if "rnic" in str(link)]
    if kind == "uplink":
        return [link for link in links if "spine" in str(link)]
    return topology.tors() + topology.spines


def _scan(cache, fault):
    """Which cached entries a fault meets, asked of every entry."""
    return {
        pair for pair, entry in cache._entries.items()
        if entry.reached and entry.stale != "epoch_changed"
        and fault.meets(
            (route.path for route in entry.routes),
            entry.trace.src_rnic, entry.trace.dst_rnic,
        )
    }


def _epoch_marked(cache):
    return {
        pair for pair, entry in cache._entries.items()
        if entry.stale == "epoch_changed"
    }


def _lands_as_scanned(scenario, act, fault):
    cache = scenario.fabric.resolution_cache
    want = _scan(cache, fault)
    before = _epoch_marked(cache)
    act()
    assert _epoch_marked(cache) - before == want


_fault = st.tuples(
    st.sampled_from(sorted(_ISSUES)), st.integers(0, 63), st.integers(0, 1)
)


@settings(max_examples=25, deadline=None)
@given(
    ecmp_mode=st.sampled_from(["static", "spray"]),
    faults=st.lists(_fault, min_size=1, max_size=4),
    migrate=st.booleans(),
    sweep=st.booleans(),
)
def test_a_fault_marks_by_lookup_what_a_scan_marks(
    ecmp_mode, faults, migrate, sweep
):
    scenario, pairs = _build(ecmp_mode)
    fabric, injector = scenario.fabric, scenario.injector
    cache = fabric.resolution_cache
    fabric.send_probe_batch(pairs, 1.0)
    if migrate:
        scenario.orchestrator.migrate_container(scenario.task.container(1))
        fabric.send_probe_batch(pairs, 2.0)
    if sweep:
        cache._sweep()
    for step, (kind, index, which) in enumerate(faults):
        issues = _ISSUES[kind]
        targets = _targets(scenario, kind)
        issue = issues[which % len(issues)]
        target = targets[index % len(targets)]
        at = 10.0 + step
        holder = []

        def inject():
            holder.append(injector.inject_issue(issue, target, start=at))

        # The fault is what the inject will register: built alike.
        params = _PARAMS[issue]
        if callable(params):
            params = params(scenario.cluster, target)
        _lands_as_scanned(scenario, inject, Fault(
            issue=issue, target=target, start=at, **params
        ))
        fault = holder[0]
        fabric.send_probe_batch(pairs[::2], at + 0.5)
        _lands_as_scanned(
            scenario, lambda: injector.clear(fault, at + 0.7), fault
        )
        fabric.send_probe_batch(pairs, at + 0.9)
    assert cache.hits > 0


def test_the_property_is_not_vacuous():
    """Each family marks some entries and leaves others alone — the
    comparison above is not comparing two empty sets."""
    for ecmp_mode in ("static", "spray"):
        scenario, pairs = _build(ecmp_mode)
        fabric, injector = scenario.fabric, scenario.injector
        fabric.send_probe_batch(pairs, 1.0)
        total = len(fabric.resolution_cache)
        for kind in sorted(_ISSUES):
            target = _targets(scenario, kind)[1]
            issue = _ISSUES[kind][0]
            fault = injector.inject_issue(issue, target, start=5.0)
            marked = _epoch_marked(fabric.resolution_cache)
            assert 0 < len(marked) < total, (ecmp_mode, kind)
            injector.clear(fault, 6.0)
            fabric.send_probe_batch(pairs, 7.0)


def test_a_container_target_marks_nothing_by_itself():
    """A container meets no route or endpoint RNIC: what its crash
    does, it does through the health flags it sets."""
    scenario, pairs = _build("static")
    cache = scenario.fabric.resolution_cache
    scenario.fabric.send_probe_batch(pairs, 1.0)
    container = scenario.task.container(2)
    fault = Fault(issue=IssueType.CONTAINER_CRASH, target=container, start=3.0)
    assert _scan(cache, fault) == set()
    cache._on_fault("inject", fault, 3.0)
    assert _epoch_marked(cache) == set()


def test_victim_links_mark_the_paths_they_cross():
    """A PFC storm on an uplink marks, besides the paths through its
    target, the paths through every other link of its storm centre —
    and the index finds those through the topology's paths."""
    scenario, pairs = _build("spray")
    fabric, injector = scenario.fabric, scenario.injector
    fabric.send_probe_batch(pairs, 1.0)
    uplink = _targets(scenario, "uplink")[0]
    fault = injector.inject_issue(GrayIssueType.PFC_STORM, uplink, start=2.0)
    assert fault.victim_links
    victims_only = {
        pair for pair, entry in fabric.resolution_cache._entries.items()
        if all(uplink not in route.path.links for route in entry.routes)
        and any(
            not fault.victim_links.isdisjoint(route.path.links)
            for route in entry.routes
        )
    }
    assert victims_only
    assert victims_only <= _epoch_marked(fabric.resolution_cache)
    assert all(isinstance(link, LinkId) for link in fault.victim_links)


def test_a_switch_target_shows_no_face_on_victim_links():
    """Victim links are a link target's second face: a fault on a
    switch that carries some marks only what passes the switch, as
    :meth:`Fault.face_on` has it."""
    scenario, pairs = _build("static")
    cache = scenario.fabric.resolution_cache
    scenario.fabric.send_probe_batch(pairs, 1.0)
    tor = scenario.topology.tors()[0]
    victims = frozenset(_targets(scenario, "access"))
    fault = Fault(
        issue=IssueType.SWITCH_OFFLINE, target=tor, start=2.0,
        victim_links=victims,
    )
    crossing_victims = {
        pair for pair, entry in cache._entries.items()
        if any(not victims.isdisjoint(r.path.links) for r in entry.routes)
    }
    want = _scan(cache, fault)
    assert crossing_victims - want  # victims the scan leaves alone
    cache._on_fault("inject", fault, 2.0)
    assert _epoch_marked(cache) == want


def test_a_fault_landing_mid_batch_marks_the_rows_already_resolved():
    """Rows a batch resolved before a fault landed (here between two of
    its rows) are registered before the fault looks for what it meets,
    so they are marked as a pair-by-pair world would mark them."""
    scenario, pairs = _build("static")
    cache = scenario.fabric.resolution_cache
    rnic = scenario.cluster.overlay.rnic_of(pairs[0].src)
    half = len(pairs) // 2
    resolve_row = cache._resolve_row
    rows = []

    def fault_between_rows(key):
        if len(rows) == half:
            scenario.inject(IssueType.RNIC_PORT_DOWN, rnic)
        rows.append(key)
        return resolve_row(key)

    cache._resolve_row = fault_between_rows
    try:
        cache.resolve_all(pairs)
    finally:
        del cache._resolve_row
    met = [
        entry for entry in (
            cache._entries[(pair.src, pair.dst)] for pair in pairs[:half]
        )
        if rnic in (entry.trace.src_rnic, entry.trace.dst_rnic)
    ]
    assert met and all(entry.stale == "epoch_changed" for entry in met)
    later = [
        cache._entries[(pair.src, pair.dst)] for pair in pairs[half:]
    ]
    assert all(entry.stale is None for entry in later)
