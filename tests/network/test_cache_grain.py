"""Count guards on the grain of resolution-cache validity.

A cached resolution is valid while what it read is unchanged, so a
change must re-walk *exactly* the pairs that read it — counted here on
a 16-container x 8-GPU scenario under its skeleton list, so the grain
cannot silently coarsen back to a table, a global health epoch or a
global fault epoch (every one of which would still pass the twin-world
oracle: re-walking too much is slow, not wrong).
"""

import pytest

from repro.cluster.overlay import vtep_name
from repro.cluster.topology import UnderlayPath
from repro.network.fabric import DataPlaneFabric
from repro.network.faults import FaultInjector
from repro.network.issues import GrayIssueType, IssueType
from repro.workloads.scenarios import build_scenario


class Rounds:
    """A scenario's skeleton list, probed round by round."""

    def __init__(self, ecmp_mode="static"):
        self.scenario = build_scenario(
            num_containers=16, gpus_per_container=8, pp=2,
            ecmp_mode=ecmp_mode,
        )
        self.scenario.apply_skeleton()
        self.fabric = self.scenario.fabric
        self.overlay = self.scenario.cluster.overlay
        self.pairs = self.scenario.hunter.controller.ping_list_of(
            self.scenario.task.id
        ).active_pairs()
        self.now = 0.0
        self.last = None

    def probe(self):
        """One round; returns the pairs whose resolution was re-walked
        (all of them on the first)."""
        self.now += 1.0
        cache = self.fabric.resolution_cache
        misses = cache.misses
        batch = self.fabric.send_probe_batch(self.pairs, self.now)
        previous, self.last = self.last, list(batch.resolutions)
        rewalked = [
            pair for i, pair in enumerate(self.pairs)
            if previous is None or previous[i] is not self.last[i]
        ]
        assert len(rewalked) == cache.misses - misses
        causes = self.fabric.metrics.counters("cache.miss.")
        assert sum(causes.values()) == cache.misses
        return rewalked

    def warm(self):
        assert self.probe() == self.pairs
        return self

    def rnics(self, pair):
        return (self.overlay.rnic_of(pair.src), self.overlay.rnic_of(pair.dst))

    def cause(self, name):
        return self.fabric.metrics.counter(f"cache.miss.{name}")


@pytest.fixture
def rounds():
    return Rounds().warm()


def test_the_round_after_a_cold_start_is_all_hits(rounds):
    # A cold round's own first-use installs stale nothing: each walk
    # installs its keys, and no other pair's.
    assert len(rounds.pairs) == 192
    assert rounds.probe() == []
    assert rounds.cause("cold") == len(rounds.pairs)
    assert rounds.cause("table_changed") == rounds.cause("epoch_changed") == 0


def test_an_rnic_fault_rewalks_the_pairs_on_that_rnic(rounds):
    rnic = rounds.overlay.rnic_of(rounds.pairs[0].src)
    on_rnic = [pair for pair in rounds.pairs if rnic in rounds.rnics(pair)]
    assert 0 < len(on_rnic) < len(rounds.pairs) / 4

    fault = rounds.scenario.inject(IssueType.RNIC_PORT_DOWN, rnic)
    assert rounds.probe() == on_rnic
    assert rounds.probe() == []
    rounds.scenario.clear(fault)
    assert rounds.probe() == on_rnic
    assert rounds.cause("epoch_changed") == 2 * len(on_rnic)
    # A cleared fault leaves the hot path: every row is plain again.
    assert all(resolution.plain for resolution in rounds.last)


def test_a_host_fault_rewalks_the_pairs_on_that_host(rounds):
    host = rounds.overlay.rnic_of(rounds.pairs[0].src).host
    on_host = [
        pair for pair in rounds.pairs
        if host in [rnic.host for rnic in rounds.rnics(pair)]
    ]
    assert 0 < len(on_host) < len(rounds.pairs) / 2

    rounds.scenario.inject(IssueType.PCIE_NIC_ERROR, host)
    assert rounds.probe() == on_host


@pytest.mark.parametrize("ecmp_mode", ["static", "spray"])
def test_a_link_fault_rewalks_the_pairs_routed_across_it(ecmp_mode):
    rounds = Rounds(ecmp_mode).warm()
    fabric = rounds.fabric
    routes = {
        pair: fabric.path_distribution(pair.src, pair.dst)
        for pair in rounds.pairs
    }
    if ecmp_mode == "static":
        assert all(
            paths == [fabric.traceroute(pair.src, pair.dst)]
            for pair, paths in routes.items()
        )
    link = next(
        link for paths in routes.values() for link in paths[-1].links
        if "spine" in str(link)
    )
    across = [
        pair for pair in rounds.pairs
        if any(link in path.links for path in routes[pair])
    ]
    assert 0 < len(across) < len(rounds.pairs)

    fault = rounds.scenario.inject(IssueType.CRC_ERROR, link)
    assert rounds.probe() == across
    rounds.scenario.clear(fault)
    assert rounds.probe() == across


def test_a_pfc_storm_rewalks_the_pairs_across_its_victim_links(rounds):
    fabric = rounds.fabric
    link = next(
        link for pair in rounds.pairs
        for link in fabric.traceroute(pair.src, pair.dst).links
        if "spine" in str(link)
    )
    fault = rounds.scenario.inject(GrayIssueType.PFC_STORM, link)
    met = [
        pair for pair in rounds.pairs
        if fault.face_on(fabric.traceroute(pair.src, pair.dst)) is not None
    ]
    victims_only = [
        pair for pair in met
        if link not in fabric.traceroute(pair.src, pair.dst).links
    ]
    assert victims_only and len(met) < len(rounds.pairs)
    assert rounds.probe() == met


def test_a_health_flip_rewalks_the_pairs_through_that_component(rounds):
    rnic = rounds.overlay.rnic_of(rounds.pairs[0].src)
    through = [pair for pair in rounds.pairs if rnic in rounds.rnics(pair)]

    rounds.overlay.health(vtep_name(rnic)).extra_latency_us = 40.0
    assert rounds.probe() == through
    rounds.overlay.clear_health(vtep_name(rnic))
    assert rounds.probe() == through
    assert rounds.cause("epoch_changed") == 2 * len(through)


def test_another_tenants_first_use_install_costs_a_warm_pair_nothing(
    cluster, orchestrator, engine, rng
):
    # Sharing a host needs containers smaller than one: two
    # 3-container x 2-GPU tenants packed onto 4-GPU hosts.
    tenants = [
        orchestrator.submit_task(3, 2, instant_startup=True)
        for _ in range(2)
    ]
    engine.run_until(engine.now)
    fabric = DataPlaneFabric(cluster, FaultInjector(cluster), rng)
    pairs_a, pairs_b = (
        [
            (a, b)
            for src in task.all_containers()
            for dst in task.all_containers() if src is not dst
            for a in src.endpoints() for b in dst.endpoints()
        ]
        for task in tenants
    )
    hosts_a, hosts_b = (
        {container.host for container in task.all_containers()}
        for task in tenants
    )
    assert hosts_a & hosts_b
    fabric.send_probe_batch(pairs_a, 1.0)
    cache = fabric.resolution_cache
    sizes = cluster.overlay.flow_table_sizes()

    fabric.send_probe_batch(pairs_b, 2.0)

    grown = cluster.overlay.flow_table_sizes()
    assert all(grown[host] > sizes[host] for host in hosts_a & hosts_b)
    hits, misses = cache.hits, cache.misses
    assert all(result.ok for result in fabric.send_probe_batch(pairs_a, 3.0))
    assert (cache.hits, cache.misses) == (hits + len(pairs_a), misses)


@pytest.mark.parametrize("ecmp_mode", ["static", "spray"])
def test_a_cold_resolution_builds_only_the_routes_it_holds(
    ecmp_mode, monkeypatch
):
    # A pinned pick is composed alone: building every spine's candidate
    # to index one of them was most of a first contact's route cost.
    scenario = build_scenario(
        num_containers=16, gpus_per_container=8, pp=2, ecmp_mode=ecmp_mode,
        start_monitoring=False,
    )
    topology, overlay = scenario.topology, scenario.cluster.overlay
    cache = scenario.fabric.resolution_cache
    src, dst = next(
        (a, b) for a in scenario.task.endpoints()
        for b in scenario.task.endpoints()
        if a.container != b.container
        and topology.tor_of(overlay.rnic_of(a))
        != topology.tor_of(overlay.rnic_of(b))
    )
    built = []
    post_init = UnderlayPath.__post_init__

    def counting(path):
        built.append(path)
        post_init(path)

    monkeypatch.setattr(UnderlayPath, "__post_init__", counting)
    misses = cache.misses
    resolution = cache.resolve(src, dst)
    assert cache.misses == misses + 1
    assert [route.path for route in resolution.routes] == built
    assert len(built) == (
        1 if ecmp_mode == "static" else topology.num_spines
    ) > 0
