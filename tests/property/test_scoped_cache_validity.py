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
flips and ``clear_health``, and inject/clear of faults on RNICs, hosts,
containers, links (with PFC victim links) and switches — two tenants
share hosts, so one tenant's churn runs under the other's warm entries.
So does a third, never-probed tenant's first-use install on those
hosts, and a container re-attaching (which touches its host's and
RNICs' tables) *between two rows of one batch* with a gray fault active
— the mark lands on rows the batch already resolved.  The twins are
built under one ECMP mode, static or spraying, fixed for their life.
"""

from collections import Counter

import pytest
from hypothesis import example, given, settings
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
    """Two 3-container x 2-GPU tenants and a never-probed 2-container
    neighbour, packed onto shared 6-GPU hosts."""

    def __init__(self, cache_enabled: bool, ecmp_mode: str) -> None:
        topology = RailOptimizedTopology(
            num_segments=2, hosts_per_segment=3, rails_per_host=6,
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
        neighbour = self.orchestrator.submit_task(2, 2, instant_startup=True)
        self.engine.run_until(self.engine.now)
        first, second = neighbour.all_containers()
        self.neighbour_pairs = [
            pair for a in first.endpoints() for b in second.endpoints()
            for pair in ((a, b), (b, a))
        ]
        self.injector = FaultInjector(self.cluster)
        self.fabric = DataPlaneFabric(
            self.cluster, self.injector, RngRegistry(11),
            cache_enabled=cache_enabled, ecmp_mode=ecmp_mode,
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
        self.last_batch = None

    # -- operations (selected by index, so both worlds do the same) ----

    def probe(self, picks):
        return self.probe_batch(
            [self.pairs[i % len(self.pairs)] for i in picks]
        )

    def again(self):
        """The last batch once more: the bulk path, unless a row of it
        was marked stale since."""
        if self.last_batch is not None:
            return self.probe_batch(self.last_batch)

    def probe_batch(self, batch):
        self.now += 1.0
        self.last_batch = batch
        return self.fabric.send_probe_batch(batch, self.now)

    def touch_mid_batch(self, picks, row, container_index, link_index):
        """A gray fault on a link, then a batch during which a
        container re-attaches before row ``row`` resolves."""
        self.faults.append(self.injector.inject_issue(
            GrayIssueType.PFC_STORM,
            self.links[link_index % len(self.links)], start=self.now,
        ))
        batch = [self.pairs[i % len(self.pairs)] for i in picks]
        if batch == self.last_batch:
            batch.append(batch[0])  # so no world answers it in bulk
        container = self.containers[container_index % len(self.containers)]
        cache = self.fabric.resolution_cache
        resolve_row = cache._resolve_row
        rows = []

        def resolve_under_churn(key):
            if len(rows) == row % len(batch) and container.is_running:
                self.cluster.overlay.detach_container(container)
                self.cluster.overlay.attach_container(
                    container, self.cluster.underlay_ips_of(container.host)
                )
            rows.append(key)
            return resolve_row(key)

        cache._resolve_row = resolve_under_churn
        try:
            return self.probe_batch(batch)
        finally:
            cache._resolve_row = resolve_row

    def neighbour_install(self, index):
        """The unprobed tenant's first-use install on shared hosts."""
        src, dst = self.neighbour_pairs[index % len(self.neighbour_pairs)]
        self.cluster.overlay.ensure_flow(src, dst)

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
    st.tuples(
        st.just("touch_mid_batch"), st.lists(_index, min_size=1, max_size=8),
        _index, _index, _index,
    ),
    st.tuples(st.just("neighbour_install"), _index),
    st.tuples(st.just("again")),
)


def _reads(entry):
    """What a reached entry's walk read and installed: each flow table
    it consulted at its forward key, then the destination's OVS and
    offload tables at the reverse key."""
    replier, reverse = entry.replier, entry.reverse
    return [(table, entry.trace.key) for table in entry.trace.tables] + [
        (replier.ovs, reverse), (replier.offload, reverse),
    ]


class PullValidity:
    """How the cache decided validity before it was told of changes —
    the oracle for *when* it misses and why.

    Every reached entry kept a stamp of what it read: the sum of the
    versions of its ``(table, key)`` reads (a table's whole-table
    changes plus that key's changes) and the sum of its health objects'
    versions; every entry kept the whole-overlay
    stamp it was last found valid under, and a fault that met a reached
    entry dropped its stamp.  A lookup re-read the stamp only when the
    whole-overlay stamp had moved.  This class keeps those versions from
    the overlay's change reports and predicts each lookup; the cache's
    hit, miss and ``cache.miss.<cause>`` counts must follow it exactly,
    bulk answers included (where every row must be a predicted hit).
    """

    def __init__(self, world: World) -> None:
        self.cache = cache = world.fabric.resolution_cache
        self.versions = Counter()
        #: pair -> [entry, seen, stamp] as the cache would have kept it.
        self.state = {}
        world.cluster.overlay.add_watcher(self._changed)
        world.injector.add_observer(self._fault)
        self._resolve, self._resolve_all = cache._resolve_row, cache.resolve_all
        cache._resolve_row, cache.resolve_all = self.resolve, self.resolve_all
        self.calls = 0

    def _changed(self, source, key):
        self.versions[source if key is None else (source, key)] += 1

    def _fault(self, action, fault, at):
        for held in self.state.values():
            entry = held[0]
            if held[2] is not None and fault.meets(
                (route.path for route in entry.routes),
                entry.trace.src_rnic, entry.trace.dst_rnic,
            ):
                held[2] = None

    def _stamp(self, entry):
        tables = sum(
            self.versions[table] + self.versions[(table, key)]
            for table, key in _reads(entry)
        )
        epochs = sum(self.versions[health] for health in entry.healths)
        return tables, epochs

    def predict(self, pair):
        entry = self.cache._entries.get(pair)
        if entry is None:
            return "cold"
        held = self.state[pair]
        assert held[0] is entry
        whole = self.cache._whole_stamp()
        cause = "epoch_changed"
        if held[1] != whole and held[2] is not None:
            now = self._stamp(entry)
            if now == held[2]:
                held[1] = whole
            elif now[1] == held[2][1]:
                cause = "table_changed"
        return "hit" if held[1] == whole else cause

    def counts(self):
        return self.cache.hits, self.cache.metrics.counters("cache.miss.")

    def resolve(self, pair):
        """One row of a pass (``FlowResolutionCache._resolve_row``)."""
        self.calls += 1
        want = self.predict(pair)
        hits, causes = self.counts()
        resolution = self._resolve(pair)
        if want == "hit":
            assert self.counts() == (hits + 1, causes), pair
            return resolution
        key = f"cache.miss.{want}"
        assert self.counts() == (hits, {**causes, key: causes.get(key, 0) + 1})
        self.state[pair] = [
            resolution, self.cache._whole_stamp(),
            self._stamp(resolution) if resolution.reached else None,
        ]
        return resolution

    def resolve_all(self, pairs):
        calls, hits = self.calls, self.cache.hits
        vector = self._resolve_all(pairs)
        if self.calls == calls:  # answered in bulk
            assert self.cache.hits == hits + len(pairs)
            for src, dst in vector.endpoints:
                assert self.predict((src, dst)) == "hit", (src, dst)
        return vector


def run_twins(operations, ecmp_mode="static"):
    """Apply ``operations`` to both worlds, built under ``ecmp_mode``,
    comparing as it goes (the cached world's counts against
    :class:`PullValidity`); returns the cached world."""
    cached, oracle = World(True, ecmp_mode), World(False, ecmp_mode)
    PullValidity(cached)
    for step, (kind, *args) in enumerate(operations):
        got = getattr(cached, kind)(*args)
        want = getattr(oracle, kind)(*args)
        assert got == want, f"step {step}: {kind}{tuple(args)}"
        assert cached.table_state() == oracle.table_state(), (
            f"step {step}: {kind}{tuple(args)}"
        )
    assert oracle.fabric.resolution_cache.hits == 0
    return cached


def _warm_then(operations, ecmp_mode):
    # Warm every pair first, so mutations land under a warm cache.
    everything = [("probe", list(range(48)))]
    run_twins(everything + operations + everything, ecmp_mode)


_mode = st.sampled_from(["static", "spray"])


@settings(max_examples=150, deadline=None)
@given(st.lists(_operation, min_size=1, max_size=40), _mode)
# A destination's half, walked before a re-attach of that destination
# lands between two rows of one batch, is not replayed after it.
@example(
    operations=[("touch_mid_batch", [0, 0], 1, 1, 0)], ecmp_mode="spray"
)
def test_cached_world_equals_uncached_world(operations, ecmp_mode):
    _warm_then(operations, ecmp_mode)


@pytest.mark.slow
@settings(max_examples=1000, deadline=None)
@given(st.lists(_operation, min_size=1, max_size=120), _mode)
def test_cached_world_equals_uncached_world_deep(operations, ecmp_mode):
    """The same oracle, further out: more and longer interleavings than
    tier-1 affords (CI's ``slow`` job)."""
    _warm_then(operations, ecmp_mode)


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
        ("detach", 4), ("attach", 4), ("crash", 2),
        ("neighbour_install", 3), ("touch_mid_batch", [0, 5, 9], 1, 5, 7),
        ("again",),
    ]
    # Two rounds after each: the first re-walks what the mutation
    # touched, the second is served.
    for ecmp_mode in ("static", "spray"):
        cached = run_twins([everything] * 2 + [
            step for mutation in mutations
            for step in (mutation, everything, everything)
        ], ecmp_mode)
        cache = cached.fabric.resolution_cache
        causes = cached.fabric.metrics.counters("cache.miss.")
        assert cache.hits > cache.misses
        assert sum(causes.values()) == cache.misses
        assert all(
            causes.get(f"cache.miss.{cause}", 0) > 0
            for cause in ("cold", "table_changed", "epoch_changed")
        ), (ecmp_mode, causes)


def test_a_row_marked_mid_batch_keeps_the_repeat_off_the_bulk_path():
    """Rows resolved before the re-attach are marked while their own
    batch is still resolving: the same batch again must look each row
    up (and re-walk the marked ones), not answer from the vector."""
    everything = ("probe", list(range(48)))
    run_twins([
        everything, ("touch_mid_batch", list(range(48)), 30, 0, 3),
        ("again",), ("again",),
    ], "spray")
