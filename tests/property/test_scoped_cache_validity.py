"""Property: the scoped resolution cache is indistinguishable from none.

Twin worlds — one fabric with :class:`FlowResolutionCache` on, one with
``cache_enabled=False`` (the oracle: every probe re-walks the chain) —
are driven through the same interleaving of probes and mutations.
Every :class:`ProbeResult` must be equal, and so must every flow
table's contents *and* per-rule hit counters, because a cache hit
replays ``rule.hit()`` and skips only side effects that would have
been no-ops.  The mutations are what scoped validity must survive:
migration, crash, direct detach and late attach, OVS rule removal and
replacement — by table position and of a pair's *reverse* ENCAP rule at
its destination host, which a resolution installs but never looks up —
``RnicOffloadTable.invalidate`` (Figure 18) and ``clear``, health-flag
flips and ``clear_health``, inject/clear of faults on RNICs, hosts,
containers, links (with PFC victim links) and switches, and ECMP-mode
switches — two tenants share hosts, so one tenant's churn runs under
the other's warm entries.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.flowtable import ActionKind, FlowAction, FlowKey
from repro.cluster.orchestrator import (
    Cluster,
    Orchestrator,
    PlacementError,
)
from repro.cluster.overlay import ovs_name, veth_name, vtep_name
from repro.cluster.topology import RailOptimizedTopology
from repro.network.fabric import DataPlaneFabric
from repro.network.faults import FaultInjector
from repro.network.issues import GrayIssueType, IssueType
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RngRegistry

_RNIC_ISSUES = (
    IssueType.RNIC_PORT_DOWN,
    IssueType.OFFLOADING_FAILURE,
    IssueType.RNIC_GID_CHANGE,
    IssueType.REPETITIVE_FLOW_OFFLOADING,
    IssueType.RNIC_FIRMWARE_NOT_RESPONDING,
)
_HOST_ISSUES = (IssueType.NOT_USING_RDMA, IssueType.PCIE_NIC_ERROR)
_LINK_ISSUES = (IssueType.CRC_ERROR, GrayIssueType.PFC_STORM)
_SWITCH_ISSUES = (IssueType.SWITCH_OFFLINE,)
_FLAGS = (
    ("down", True, False),
    ("force_software_path", True, False),
    ("loss_rate", 1.0, 0.0),
    ("extra_latency_us", 80.0, 0.0),
)


class World:
    """Two 3-container x 2-GPU tenants packed onto shared 4-GPU hosts."""

    def __init__(self, cache_enabled: bool) -> None:
        topology = RailOptimizedTopology(
            num_segments=2, hosts_per_segment=3, rails_per_host=4,
            num_spines=2,
        )
        self.cluster = Cluster(topology)
        self.engine = SimulationEngine()
        self.orchestrator = Orchestrator(
            self.cluster, self.engine, RngRegistry(5)
        )
        self.containers = []
        for _ in range(2):
            task = self.orchestrator.submit_task(
                3, 2, instant_startup=True
            )
            self.containers.extend(task.all_containers())
        self.engine.run_until(self.engine.now)
        self.injector = FaultInjector(self.cluster)
        self.fabric = DataPlaneFabric(
            self.cluster, self.injector, RngRegistry(11),
            cache_enabled=cache_enabled,
        )
        self.pairs = [
            (a, b)
            for task_start in (0, 3)
            for src in self.containers[task_start:task_start + 3]
            for dst in self.containers[task_start:task_start + 3]
            if src is not dst
            for a in src.endpoints()
            for b in dst.endpoints()
        ]
        self.hosts = sorted(self.cluster.hosts)
        self.rnics = [
            rnic.id for host in self.hosts
            for rnic in self.cluster.host(host).rnics
        ]
        self.links = topology.links()
        self.switches = topology.tors() + topology.spines
        self.components = (
            [veth_name(a) for a, _ in self.pairs[::7]]
            + [ovs_name(host) for host in self.hosts]
            + [vtep_name(rnic) for rnic in self.rnics]
        )
        self.faults = []
        self.now = 0.0

    # -- operations (selected by index, so both worlds do the same) ----

    def probe(self, picks):
        self.now += 1.0
        batch = [self.pairs[i % len(self.pairs)] for i in picks]
        return self.fabric.send_probe_batch(batch, self.now)

    def migrate(self, index):
        container = self.containers[index % len(self.containers)]
        if container.is_running:
            try:
                self.orchestrator.migrate_container(container)
            except PlacementError:
                pass

    def crash(self, index):
        self.orchestrator.crash_container(
            self.containers[index % len(self.containers)]
        )

    def detach(self, index):
        container = self.containers[index % len(self.containers)]
        if container.is_running:
            self.cluster.overlay.detach_container(container)

    def attach(self, index):
        container = self.containers[index % len(self.containers)]
        if container.is_running:
            self.cluster.overlay.attach_container(
                container, self.cluster.underlay_ips_of(container.host)
            )

    def _ovs_rule(self, host_index, rule_index):
        table = self.cluster.overlay.ovs_table(
            self.hosts[host_index % len(self.hosts)]
        )
        keys = table.keys()
        if not keys:
            return table, None
        return table, keys[rule_index % len(keys)]

    def ovs_remove(self, host_index, rule_index):
        table, key = self._ovs_rule(host_index, rule_index)
        if key is not None:
            table.remove(key)

    def _reverse_rule(self, pair_index):
        """The rule a pair's echo reply rides: keyed on the *source*,
        in the destination host's table."""
        src, dst = self.pairs[pair_index % len(self.pairs)]
        overlay = self.cluster.overlay
        if not overlay.is_registered(dst):
            return None, None
        return overlay.ovs_table(overlay.record_of(dst).host), FlowKey(
            overlay.vni_of(src.container.task), overlay.overlay_ip(src)
        )

    def reverse_remove(self, pair_index):
        table, key = self._reverse_rule(pair_index)
        if key is not None:
            table.remove(key)

    def reverse_replace(self, pair_index, rnic_index):
        table, key = self._reverse_rule(pair_index)
        if key is not None:
            self._repoint(table, key, rnic_index)

    def ovs_replace(self, host_index, rule_index, rnic_index):
        """Point a rule at another VTEP, or at one the underlay lacks."""
        table, key = self._ovs_rule(host_index, rule_index)
        if key is not None:
            self._repoint(table, key, rnic_index)

    def _repoint(self, table, key, rnic_index):
        known = sorted(self.cluster.overlay.underlay_map())
        choices = known + ["10.254.254.254"]
        table.install(key, FlowAction(
            ActionKind.ENCAP,
            remote_underlay_ip=choices[rnic_index % len(choices)],
        ))

    def offload_invalidate(self, rnic_index, rule_index):
        table = self.cluster.overlay.offload_table(
            self.rnics[rnic_index % len(self.rnics)]
        )
        keys = table.keys()
        if keys:
            table.invalidate(keys[rule_index % len(keys)])

    def offload_clear(self, rnic_index):
        self.cluster.overlay.offload_table(
            self.rnics[rnic_index % len(self.rnics)]
        ).clear()

    def health_flip(self, component_index, flag_index):
        health = self.cluster.overlay.health(
            self.components[component_index % len(self.components)]
        )
        name, on, off = _FLAGS[flag_index % len(_FLAGS)]
        setattr(health, name, off if getattr(health, name) else on)

    def clear_health(self, component_index):
        self.cluster.overlay.clear_health(
            self.components[component_index % len(self.components)]
        )

    def inject(self, issue_index, target_index):
        issues = (
            _RNIC_ISSUES + _HOST_ISSUES + (IssueType.CONTAINER_CRASH,)
            + _LINK_ISSUES + _SWITCH_ISSUES
        )
        issue = issues[issue_index % len(issues)]
        for family, targets in (
            (_RNIC_ISSUES, self.rnics), (_HOST_ISSUES, self.hosts),
            (_LINK_ISSUES, self.links), (_SWITCH_ISSUES, self.switches),
        ):
            if issue in family:
                target = targets[target_index % len(targets)]
                break
        else:
            target = self.containers[target_index % len(self.containers)]
        self.faults.append(
            self.injector.inject_issue(issue, target, start=self.now)
        )

    def clear(self, index):
        if self.faults:
            fault = self.faults.pop(index % len(self.faults))
            self.injector.clear(fault, at=self.now)

    def ecmp(self, index):
        self.fabric.set_ecmp_mode(("static", "spray")[index % 2])

    # -- what must be equal across the twins ----------------------------

    def table_state(self):
        overlay = self.cluster.overlay
        tables = [
            overlay.ovs_table(host) for host in overlay.hosts_with_tables()
        ] + [
            overlay.offload_table(rnic) for rnic in overlay.offload_rnics()
        ]
        return [
            (table.name, [
                (rule.key, rule.action, rule.packets, rule.offloaded)
                for rule in table.rules()
            ])
            for table in tables
        ]


_index = st.integers(min_value=0, max_value=63)
_probe = st.tuples(
    st.just("probe"), st.lists(_index, min_size=1, max_size=8)
)
_operation = st.one_of(
    _probe,
    _probe,
    st.tuples(st.just("migrate"), _index),
    st.tuples(st.just("crash"), _index),
    st.tuples(st.just("detach"), _index),
    st.tuples(st.just("attach"), _index),
    st.tuples(st.just("ovs_remove"), _index, _index),
    st.tuples(st.just("ovs_replace"), _index, _index, _index),
    st.tuples(st.just("reverse_remove"), _index),
    st.tuples(st.just("reverse_replace"), _index, _index),
    st.tuples(st.just("offload_invalidate"), _index, _index),
    st.tuples(st.just("offload_clear"), _index),
    st.tuples(st.just("health_flip"), _index, _index),
    st.tuples(st.just("clear_health"), _index),
    st.tuples(st.just("inject"), _index, _index),
    st.tuples(st.just("clear"), _index),
    st.tuples(st.just("ecmp"), _index),
)


def run_twins(operations):
    """Apply ``operations`` to both worlds, comparing as it goes;
    returns the cached world."""
    cached, oracle = World(cache_enabled=True), World(cache_enabled=False)
    for step, (kind, *args) in enumerate(operations):
        got = getattr(cached, kind)(*args)
        want = getattr(oracle, kind)(*args)
        assert got == want, f"step {step}: {kind}{tuple(args)}"
        assert cached.table_state() == oracle.table_state(), (
            f"step {step}: {kind}{tuple(args)}"
        )
    assert oracle.fabric.resolution_cache.hits == 0
    return cached


def _warm_then(operations):
    # Warm every pair first, so mutations land under a warm cache.
    everything = [("probe", list(range(48)))]
    run_twins(everything + operations + everything)


@settings(max_examples=150, deadline=None)
@given(st.lists(_operation, min_size=1, max_size=40))
def test_cached_world_equals_uncached_world(operations):
    _warm_then(operations)


@pytest.mark.slow
@settings(max_examples=1000, deadline=None)
@given(st.lists(_operation, min_size=1, max_size=120))
def test_cached_world_equals_uncached_world_deep(operations):
    """The same oracle, further out: more and longer interleavings than
    tier-1 affords (CI's ``slow`` job)."""
    _warm_then(operations)


def test_a_partial_round_after_a_reverse_rule_removal():
    """What the final full round of the property heals before the
    tables are compared: a pair probed *alone* after its reply rule was
    removed must put it back, as the uncached walk does."""
    everything = ("probe", list(range(48)))
    run_twins([everything, ("reverse_remove", 9), ("probe", [9])])
    run_twins([everything, ("reverse_replace", 9, 3), ("probe", [9])])
    run_twins([everything, ("offload_clear", 2), ("probe", [9, 2, 40])])


def test_property_is_not_vacuous():
    """A fixed interleaving that serves hits and recomputes for every
    cause — so the comparison above is not comparing two cold walks."""
    everything = ("probe", list(range(48)))
    mutations = [
        ("migrate", 0), ("offload_invalidate", 2, 0),
        ("ovs_replace", 1, 0, 5), ("reverse_remove", 9),
        ("health_flip", 3, 0), ("clear_health", 3),
        ("inject", 0, 4), ("clear", 0), ("inject", 9, 20), ("clear", 0),
        ("detach", 4), ("attach", 4), ("crash", 2), ("ecmp", 1),
    ]
    # Two rounds after each: the first re-walks what the mutation
    # touched, the second is served.
    cached = run_twins([everything] * 2 + [
        step for mutation in mutations
        for step in (mutation, everything, everything)
    ])
    cache = cached.fabric.resolution_cache
    causes = cached.fabric.metrics.counters("cache.miss.")
    assert cache.hits > cache.misses
    assert sum(causes.values()) == cache.misses
    assert all(
        causes.get(f"cache.miss.{cause}", 0) > 0
        for cause in ("cold", "table_changed", "epoch_changed")
    ), causes
