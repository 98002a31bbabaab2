"""Tests for the flow-resolution cache and its scoped invalidation.

The cache memoizes the deterministic half of a probe; every state change
that could alter where a packet goes (fault inject/clear, flow-table
mutation, health flags, container attach/detach) must invalidate the
resolutions it can affect — a stale hit here is exactly the Figure-18
failure mode — and only those: another host's churn must not.
"""

import pytest

from repro.cluster.flowtable import FlowKey
from repro.cluster.overlay import ovs_name, veth_name
from repro.network.fabric import DataPlaneFabric
from repro.network.faults import FaultInjector
from repro.network.issues import IssueType


@pytest.fixture
def injector(cluster):
    return FaultInjector(cluster)


@pytest.fixture
def fabric(cluster, injector, rng):
    return DataPlaneFabric(cluster, injector, rng)


@pytest.fixture
def endpoints(running_task):
    src = running_task.container(0).endpoint(0)
    dst = running_task.container(1).endpoint(0)
    return src, dst


class TestCacheBasics:
    def test_repeat_probe_hits_cache(self, fabric, endpoints):
        cache = fabric.resolution_cache
        fabric.send_probe(*endpoints, at=0.0)
        first_misses = cache.misses
        fabric.send_probe(*endpoints, at=1.0)
        fabric.send_probe(*endpoints, at=2.0)
        assert cache.misses == first_misses
        assert cache.hits == 2

    def test_disabled_cache_stores_nothing(self, cluster, injector, rng):
        fabric = DataPlaneFabric(
            cluster, injector, rng, cache_enabled=False
        )
        assert len(fabric.resolution_cache) == 0

    def test_invalidate_drops_entries(self, fabric, endpoints):
        fabric.send_probe(*endpoints, at=0.0)
        assert len(fabric.resolution_cache) > 0
        fabric.resolution_cache.invalidate()
        assert len(fabric.resolution_cache) == 0

    def test_cached_probe_results_match_cold(self, fabric, endpoints):
        cold = fabric.send_probe(*endpoints, at=0.0)
        warm = fabric.send_probe(*endpoints, at=0.0)
        # Same resolution, same time; only the RNG draw block differs,
        # so path, rnics, and delivery must agree.
        assert warm.underlay_path == cold.underlay_path
        assert (warm.src_rnic, warm.dst_rnic) == (
            cold.src_rnic, cold.dst_rnic
        )
        assert warm.ok and cold.ok

    def test_cache_hit_replays_flow_rule_counters(
        self, fabric, endpoints, cluster
    ):
        src, _dst = endpoints
        fabric.send_probe(*endpoints, at=0.0)
        table = cluster.overlay.ovs_table(
            cluster.overlay.rnic_of(src).host
        )
        packets_after_miss = max(r.packets for r in table.rules())
        fabric.send_probe(*endpoints, at=1.0)
        assert fabric.resolution_cache.hits == 1
        # The cached resolution replays rule.hit(), so per-rule packet
        # counters advance exactly as a re-walk would.
        assert (
            max(r.packets for r in table.rules())
            == packets_after_miss + 1
        )


class TestEpochInvalidation:
    def _warm(self, fabric, endpoints):
        fabric.send_probe(*endpoints, at=0.0)
        fabric.send_probe(*endpoints, at=0.5)
        assert fabric.resolution_cache.hits >= 1

    def test_fault_inject_and_clear_invalidate(
        self, fabric, injector, endpoints, cluster
    ):
        self._warm(fabric, endpoints)
        src, _ = endpoints
        rnic = cluster.overlay.rnic_of(src)
        misses = fabric.resolution_cache.misses

        fault = injector.inject_issue(
            IssueType.RNIC_PORT_DOWN, rnic, start=1.0
        )
        result = fabric.send_probe(*endpoints, at=2.0)
        assert fabric.resolution_cache.misses == misses + 1
        assert result.lost and result.reason == "component down on path"

        injector.clear(fault, at=3.0)
        result = fabric.send_probe(*endpoints, at=4.0)
        assert fabric.resolution_cache.misses == misses + 2
        assert result.ok

    def test_flow_table_mutation_invalidates(
        self, fabric, endpoints, cluster
    ):
        # Removing the key the walk read is one miss, and the re-walk
        # reinstalls it.
        self._warm(fabric, endpoints)
        src, _ = endpoints
        table = cluster.overlay.ovs_table(
            cluster.overlay.rnic_of(src).host
        )
        cache = fabric.resolution_cache
        key = fabric.send_probe(*endpoints, at=0.7).overlay_trace.key
        misses = cache.misses
        assert table.remove(key)

        result = fabric.send_probe(*endpoints, at=1.0)
        assert cache.misses == misses + 1
        # The re-walk reinstalls the missing rule (slow path), so the
        # probe still completes — and the entry is warm again.
        assert result.ok and table.lookup(key) is not None
        fabric.send_probe(*endpoints, at=1.5)
        assert cache.misses == misses + 1

    def test_neighbours_key_removal_is_a_hit(
        self, fabric, endpoints, running_task, cluster
    ):
        # A flow table is an exact-match dict: removing the key another
        # flow from the same host reads changes nothing this pair read.
        # The neighbour's own next probe re-walks and reinstalls it.
        neighbour = (
            running_task.container(0).endpoint(1),
            running_task.container(1).endpoint(1),
        )
        self._warm(fabric, endpoints)
        self._warm(fabric, neighbour)
        src, _ = endpoints
        table = cluster.overlay.ovs_table(
            cluster.overlay.rnic_of(src).host
        )
        cache = fabric.resolution_cache
        key = fabric.send_probe(*neighbour, at=0.7).overlay_trace.key
        assert key != fabric.send_probe(*endpoints, at=0.7).overlay_trace.key
        hits, misses = cache.hits, cache.misses
        assert table.remove(key)

        assert fabric.send_probe(*endpoints, at=1.0).ok
        assert (cache.hits, cache.misses) == (hits + 1, misses)
        assert fabric.send_probe(*neighbour, at=1.0).ok
        assert (cache.hits, cache.misses) == (hits + 1, misses + 1)
        assert table.lookup(key) is not None

    def test_reverse_rule_removal_rewalks_and_reinstalls(
        self, fabric, endpoints, cluster
    ):
        # The echo reply rides a rule the resolution installed at the
        # destination host but never looked up; without a cache every
        # probe would put it back, so its removal is a miss too.
        self._warm(fabric, endpoints)
        src, dst = endpoints
        overlay = cluster.overlay
        table = overlay.ovs_table(overlay.rnic_of(dst).host)
        reverse = FlowKey(
            overlay.vni_of(src.container.task), overlay.overlay_ip(src)
        )
        assert reverse != fabric.send_probe(
            *endpoints, at=0.7
        ).overlay_trace.key
        misses = fabric.resolution_cache.misses
        assert table.remove(reverse)

        assert fabric.send_probe(*endpoints, at=1.0).ok
        assert fabric.resolution_cache.misses == misses + 1
        assert table.lookup(reverse) is not None

    def test_clearing_a_walked_table_invalidates(
        self, fabric, endpoints, cluster
    ):
        # clear() drops every rule in one generation step, whatever
        # their keys: the warm pair's offloaded rule is gone with them.
        self._warm(fabric, endpoints)
        src, _ = endpoints
        assert not fabric.send_probe(*endpoints, at=0.7).software_path
        cluster.overlay.offload_table(cluster.overlay.rnic_of(src)).clear()

        assert fabric.send_probe(*endpoints, at=1.0).software_path

    def test_health_flag_change_invalidates(
        self, fabric, endpoints, cluster
    ):
        self._warm(fabric, endpoints)
        src, _ = endpoints
        component = veth_name(src)
        cluster.overlay.health(component).loss_rate = 1.0

        result = fabric.send_probe(*endpoints, at=1.0)
        assert result.lost and result.reason == "packet dropped on path"

        cluster.overlay.clear_health(component)
        assert fabric.send_probe(*endpoints, at=2.0).ok

    def test_ovs_down_surfaces_through_warm_cache(
        self, fabric, endpoints, cluster
    ):
        self._warm(fabric, endpoints)
        src, _ = endpoints
        host = cluster.overlay.rnic_of(src).host
        cluster.overlay.health(ovs_name(host)).down = True
        result = fabric.send_probe(*endpoints, at=1.0)
        # The re-walk (not the stale cached trace) finds the dead OVS.
        assert result.lost
        assert result.reason == f"overlay unreachable at {ovs_name(host)}"

    def test_detach_invalidates_stale_trace(
        self, fabric, endpoints, running_task, cluster
    ):
        # Regression: a warm cache must not keep resolving probes
        # through a container that has since left the overlay.
        self._warm(fabric, endpoints)
        cluster.overlay.detach_container(running_task.container(1))

        result = fabric.send_probe(*endpoints, at=1.0)
        assert result.lost
        assert result.reason.startswith("overlay unreachable")

    def test_detach_always_bumps_epoch(self, cluster, running_task, fabric):
        # Unconditionally — also for a container no probe ever touched:
        # the whole-overlay epoch (unreached resolutions) and the
        # generations of the host's and RNICs' tables (reached ones).
        container = running_task.container(2)
        overlay = cluster.overlay
        tables = [overlay.ovs_table(container.host)] + [
            overlay.offload_table(container.vf_of(endpoint).rnic)
            for endpoint in container.endpoints()
        ]
        before = overlay.epoch, [table.generation for table in tables]
        overlay.detach_container(container)
        assert overlay.epoch > before[0]
        assert all(
            table.generation > was for table, was in zip(tables, before[1])
        )
        again = overlay.epoch, [table.generation for table in tables]
        overlay.detach_container(container)  # nothing left to remove
        assert overlay.epoch > again[0]
        assert all(
            table.generation > was for table, was in zip(tables, again[1])
        )

    def test_attach_bumps_epoch(
        self, cluster, orchestrator, engine, fabric
    ):
        before = cluster.overlay.epoch
        task = orchestrator.submit_task(1, 4, instant_startup=True)
        engine.run_until(engine.now)
        assert cluster.overlay.epoch > before
        container = task.container(0)
        table = cluster.overlay.ovs_table(container.host)
        generation = table.generation
        # Re-attaching installs nothing new (idempotent rules) and must
        # still invalidate what walked this host.
        cluster.overlay.attach_container(
            container, cluster.underlay_ips_of(container.host)
        )
        assert table.generation > generation


def _pairs_between(task):
    return [
        (a, b)
        for src in task.all_containers()
        for dst in task.all_containers() if src is not dst
        for a in src.endpoints() for b in dst.endpoints()
    ]


class TestScopedValidity:
    """A table change re-walks the resolutions that walked that table
    and no others; unreached ones still hear of every change."""

    @pytest.fixture
    def tenants(self, orchestrator, engine):
        """Two 2-container tenants on four full hosts, four hosts free."""
        tasks = [
            orchestrator.submit_task(2, 4, instant_startup=True)
            for _ in range(2)
        ]
        engine.run_until(engine.now)
        return tasks

    def _misses(self, fabric):
        return fabric.metrics.counters("cache.miss.")

    def _first_pair(self, task):
        return task.container(0).endpoint(0), task.container(1).endpoint(0)

    def test_other_tenants_migration_costs_no_miss(
        self, fabric, orchestrator, tenants
    ):
        # Counting guard: the churn of tenant A must leave tenant B's
        # warm entries warm.
        tenant_a, tenant_b = tenants
        pairs_a, pairs_b = _pairs_between(tenant_a), _pairs_between(tenant_b)
        for at in (0.0, 1.0):
            fabric.send_probe_batch(pairs_a + pairs_b, at)
        cache = fabric.resolution_cache
        hits, misses = cache.hits, cache.misses

        orchestrator.migrate_container(tenant_a.container(0))

        results = fabric.send_probe_batch(pairs_b, 3.0)
        assert all(result.ok for result in results)
        assert cache.misses == misses
        assert cache.hits == hits + len(pairs_b)
        fabric.send_probe_batch(pairs_a, 4.0)
        assert cache.misses == misses + len(pairs_a)

    def test_migrated_source_does_not_resolve_through_its_old_host(
        self, fabric, orchestrator, cluster, tenants
    ):
        # The ENCAP rule the source installed on its old host survives
        # the migration; a warm entry that walked it must not.
        src, dst = self._first_pair(tenants[0])
        overlay = cluster.overlay
        fabric.send_probe(src, dst, at=0.0)
        fabric.send_probe(src, dst, at=1.0)
        old_host = overlay.rnic_of(src).host
        old_rule = fabric.send_probe(src, dst, at=2.0).overlay_trace.rules[0]
        before = self._misses(fabric)

        new_host = orchestrator.migrate_container(tenants[0].container(0))

        assert new_host != old_host
        assert overlay.ovs_table(old_host).lookup(old_rule.key) is old_rule
        result = fabric.send_probe(src, dst, at=3.0)
        assert result.ok and result.src_rnic.host == new_host
        assert old_rule not in result.overlay_trace.rules
        after = self._misses(fabric)
        assert after["cache.miss.table_changed"] == (
            before.get("cache.miss.table_changed", 0) + 1
        )

    def test_unreached_destination_is_rewalked_once_it_attaches(
        self, fabric, cluster, tenants
    ):
        # The miss that made the pair unreachable sits in the source
        # host's table; the attach that cures it touches only the
        # destination's — hence the whole-overlay epoch for unreached.
        src, dst = self._first_pair(tenants[0])
        overlay = cluster.overlay
        fabric.send_probe(src, dst, at=0.0)
        late = tenants[0].container(1)
        overlay.detach_container(late)
        src_table = overlay.ovs_table(overlay.rnic_of(src).host)
        for key in src_table.keys():
            if src_table.lookup(key).action.remote_underlay_ip:
                src_table.remove(key)
        lost = fabric.send_probe(src, dst, at=1.0)
        assert lost.lost and lost.reason.startswith("overlay unreachable")
        walked = lost.overlay_trace.tables
        assert walked == [
            src_table, overlay.offload_table(overlay.rnic_of(src))
        ]
        hits = fabric.resolution_cache.hits
        assert fabric.send_probe(src, dst, at=2.0).lost
        assert fabric.resolution_cache.hits == hits + 1
        generations = [table.generation for table in walked]

        overlay.attach_container(late, cluster.underlay_ips_of(late.host))

        assert [table.generation for table in walked] == generations
        before = self._misses(fabric)
        assert fabric.send_probe(src, dst, at=3.0).ok
        after = self._misses(fabric)
        assert after["cache.miss.epoch_changed"] == (
            before.get("cache.miss.epoch_changed", 0) + 1
        )

    def test_mid_batch_table_mutation_rewalks_the_rest_of_the_batch(
        self, fabric, cluster, tenants, monkeypatch
    ):
        # A mutation lands between rows, in order.  A cold pair from
        # the same host sits between two probes of a warm pair; its
        # first-use install alone costs the warm pair nothing (another
        # key), so the key the warm pair read is removed while the cold
        # row resolves: the first warm probe is served, the second
        # re-walks, exactly as three sequential probes would.
        warm = self._first_pair(tenants[0])
        cold = (
            tenants[0].container(0).endpoint(1),
            tenants[0].container(1).endpoint(1),
        )
        for at in (0.0, 1.0):
            key = fabric.send_probe(*warm, at=at).overlay_trace.key
        overlay = cluster.overlay
        table = overlay.ovs_table(overlay.rnic_of(warm[0]).host)
        cache = fabric.resolution_cache
        compute = cache._compute

        def compute_under_churn(src, dst):
            if (src, dst) == cold:
                assert table.remove(key)
            return compute(src, dst)

        monkeypatch.setattr(cache, "_compute", compute_under_churn)
        hits, before = cache.hits, self._misses(fabric)

        results = fabric.send_probe_batch([warm, cold, warm], 2.0)

        assert all(result.ok for result in results)
        assert cache.hits == hits + 1
        after = self._misses(fabric)
        assert after["cache.miss.cold"] == before["cache.miss.cold"] + 1
        assert after["cache.miss.table_changed"] == (
            before.get("cache.miss.table_changed", 0) + 1
        )
        assert sum(after.values()) == cache.misses

    def test_hit_ratio(self, fabric, endpoints):
        assert fabric.resolution_cache.hit_ratio == 0.0
        for at in (0.0, 1.0, 2.0, 3.0):
            fabric.send_probe(*endpoints, at=at)
        assert fabric.resolution_cache.hit_ratio == 0.75


class TestEcmpModeSwitch:
    """Regression: ECMP-mode flips must never replay stale resolutions.

    A resolution computed under static ECMP pins one path and carries
    no spray candidates; replaying it after ``set_ecmp_mode("spray")``
    would silently keep every "sprayed" probe on its old pinned path.
    The mode therefore lives on the cache as a routing epoch.
    """

    def test_mode_switch_bumps_routing_epoch(self, fabric):
        before = fabric.resolution_cache.routing_epoch
        fabric.set_ecmp_mode("spray")
        assert fabric.resolution_cache.routing_epoch == before + 1
        fabric.set_ecmp_mode("static")
        assert fabric.resolution_cache.routing_epoch == before + 2

    def test_same_mode_is_a_noop(self, fabric):
        before = fabric.resolution_cache.routing_epoch
        fabric.set_ecmp_mode("static")
        assert fabric.resolution_cache.routing_epoch == before

    def test_unknown_mode_rejected(self, fabric):
        with pytest.raises(ValueError):
            fabric.set_ecmp_mode("adaptive")

    def test_static_resolution_not_replayed_under_spray(
        self, fabric, endpoints
    ):
        fabric.send_probe(*endpoints, at=0.0)
        fabric.send_probe(*endpoints, at=0.5)
        assert fabric.resolution_cache.hits == 1
        misses_before = fabric.resolution_cache.misses
        fabric.set_ecmp_mode("spray")
        fabric.send_probe(*endpoints, at=1.0)
        # The warm entry was keyed to static mode: the sprayed probe
        # must re-resolve, not hit.
        assert fabric.resolution_cache.misses == misses_before + 1

    def test_round_trip_restores_static_path(self, fabric, endpoints):
        cold = fabric.send_probe(*endpoints, at=0.0)
        fabric.set_ecmp_mode("spray")
        fabric.send_probe(*endpoints, at=1.0)
        fabric.set_ecmp_mode("static")
        back = fabric.send_probe(*endpoints, at=2.0)
        # Static pinning is a pure hash: leaving and re-entering static
        # mode lands the pair on the exact same path.
        assert back.underlay_path == cold.underlay_path
