"""Paths and component names are composed, not formatted: pinned to the
formatting they replace.

The topology names every device and builds every link once, at wiring,
and composes a path from those pieces; the overlay names a veth and
builds its match key at attach, and its flow tables carry the ``ovs:``
/ ``vtep:`` names; a resolution reads its six-name chain off the walk.
Each test below puts the composed answer beside what formatting the
identifiers gives — the enumeration and the chain the fabric computed
before — over every RNIC pair of two small fabrics and every endpoint
pair of a small task (same endpoint, same container, same ToR and
across spines included).
"""

import pytest

from repro.cluster.flowtable import FlowKey
from repro.cluster.identifiers import LinkId
from repro.cluster.orchestrator import Cluster, Orchestrator
from repro.cluster.overlay import ovs_name, veth_name, vtep_name
from repro.cluster.topology import (
    FatTreeTopology,
    RailOptimizedTopology,
    UnderlayPath,
)
from repro.network.fabric import DataPlaneFabric
from repro.network.faults import FaultInjector
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RngRegistry

#: Flow hashes: small, one past the spine count, and full 64-bit values.
HASHES = (0, 1, 2, 3, 5, 0xCBF29CE484222325, 2 ** 64 - 1)


def formatted_paths(topology, src, dst):
    """Every ECMP candidate, formatted from the identifiers."""
    if src == dst:
        return [UnderlayPath.through([src])]
    src_tor, dst_tor = topology.tor_of(src), topology.tor_of(dst)
    if src_tor == dst_tor:
        return [UnderlayPath.through([src, src_tor, dst])]
    return [
        UnderlayPath.through([src, src_tor, spine, dst_tor, dst])
        for spine in topology.spines
    ]


def fabrics():
    return [
        RailOptimizedTopology(
            num_segments=2, hosts_per_segment=3, rails_per_host=2,
            num_spines=3,
        ),
        FatTreeTopology(
            num_segments=3, hosts_per_segment=2, rnics_per_host=2,
            num_spines=2,
        ),
    ]


@pytest.mark.parametrize("topology", fabrics(), ids=repr)
def test_every_pair_composes_the_formatted_paths(topology):
    rnics = topology.all_rnics()
    shapes = set()
    for src in rnics:
        for dst in rnics:
            expected = formatted_paths(topology, src, dst)
            paths = topology.ecmp_paths(src, dst)
            assert paths == expected
            shapes.add(len(paths[0].devices))
            for fhash in HASHES:
                assert topology.pick_path(src, dst, fhash) == (
                    paths[fhash % len(paths)]
                )
            for path in paths:
                assert all(topology.has_link(link) for link in path.links)
    assert shapes == {1, 3, 5}  # same RNIC, same ToR, across spines


@pytest.mark.parametrize("topology", fabrics(), ids=repr)
def test_wired_names_are_the_devices_names(topology):
    assert topology.device_names() == (
        [str(rnic) for rnic in topology.all_rnics()]
        + [str(tor) for tor in topology.tors()]
        + [str(spine) for spine in topology.spines]
    )
    for rnic in topology.all_rnics():
        tor = topology.tor_of(rnic)
        port = topology._port(rnic)
        assert (port.name, port.tor.name) == (str(rnic), str(tor))
        assert port.access == LinkId.between(rnic, tor)
        assert port.tor.uplinks == tuple(
            LinkId.between(tor, spine) for spine in topology.spines
        )


@pytest.fixture
def task_world():
    """A 6-container x 2-GPU task on 4-GPU hosts across two segments,
    beside a second tenant sharing its hosts, every endpoint attached."""
    topology = RailOptimizedTopology(
        num_segments=2, hosts_per_segment=4, rails_per_host=4, num_spines=2
    )
    cluster = Cluster(topology)
    engine = SimulationEngine()
    rng = RngRegistry(1234)
    orchestrator = Orchestrator(cluster, engine, rng)
    task = orchestrator.submit_task(6, 2, instant_startup=True)
    orchestrator.submit_task(3, 2, instant_startup=True)
    engine.run_until(engine.now)
    fabric = DataPlaneFabric(cluster, FaultInjector(cluster), rng)
    return cluster, fabric, task.endpoints()


def test_overlay_names_are_the_components_names(task_world):
    cluster, _, _ = task_world
    overlay = cluster.overlay
    for endpoint in overlay.attached_endpoints():
        record = overlay.record_of(endpoint)
        assert record.veth == veth_name(endpoint)
        assert record.key == FlowKey(
            overlay.vni_of(endpoint.container.task),
            overlay.overlay_ip(endpoint),
        )
    for host in overlay.hosts_with_tables():
        assert overlay.ovs_table(host).component == ovs_name(host)
    for rnic in overlay.offload_rnics():
        table = overlay.offload_table(rnic)
        assert (table.component, table.device) == (vtep_name(rnic), str(rnic))


def test_a_resolution_reads_the_formatted_chain(task_world):
    cluster, fabric, endpoints = task_world
    overlay = cluster.overlay
    cache = fabric.resolution_cache
    rnic_names = {str(rnic) for rnic in cluster.topology.all_rnics()}
    kinds = set()
    for src in endpoints:
        for dst in endpoints:
            res = cache.resolve_all([(src, dst)]).resolutions[0]
            assert res.reached
            src_rnic, dst_rnic = res.trace.src_rnic, res.trace.dst_rnic
            chain = (
                veth_name(src), ovs_name(src_rnic.host), vtep_name(src_rnic),
                vtep_name(dst_rnic), ovs_name(dst_rnic.host), veth_name(dst),
            )
            assert len(res.healths) >= len(chain)
            assert all(
                mine is overlay.health(name)
                for mine, name in zip(res.healths, chain)
            )
            assert {rule.offloaded_to for rule in res.trace.rules} <= (
                rnic_names
            )
            kinds.add((
                src == dst, src.container == dst.container,
                len(res.routes[0].path.devices),
            ))
    # Same endpoint, same container (a same-host pair delivered by the
    # first OVS), same ToR, and across spines all occurred.
    assert (True, True, 1) in kinds
    assert (False, True, 1) in kinds
    assert any(hops == 3 for *_, hops in kinds)
    assert any(hops == 5 for *_, hops in kinds)
