"""``FlowResolutionCache.paths_of``: the routes a pair's probes resolved
to, as the monitoring side reads them.

A held reached entry answers with its routes whether it is valid or was
marked by a fault (a fault changes what a route meets, not where it
goes); a pair with no reached entry gets the placement answer
(``path_distribution``); and the read leaves every counter, rule hit
and index registration as it found them.  The pair that tells the
resolved route from the placement answer is a same-host one: its probe
is delivered without leaving the source RNIC, while placement routes it
across rails.
"""

import pytest

from repro.cluster.topology import UnderlayPath
from repro.network.fabric import DataPlaneFabric
from repro.network.faults import FaultInjector
from repro.network.issues import IssueType


@pytest.fixture
def world(cluster, orchestrator, engine, rng):
    """A fabric, and a 3-container x 2-GPU task whose container 1 a
    migration packed onto container 0's host."""
    injector = FaultInjector(cluster)
    fabric = DataPlaneFabric(cluster, injector, rng)
    task = orchestrator.submit_task(3, 2, instant_startup=True)
    engine.run_until(engine.now)
    orchestrator.migrate_container(task.container(1))
    assert task.container(1).host == task.container(0).host
    return fabric, injector, task


def pair(task, src, dst, slot=0):
    return (
        task.container(src).endpoint(slot),
        task.container(dst).endpoint(slot),
    )


def routes_of(fabric, key):
    entry = fabric.resolution_cache._entries[key]
    return [route.path for route in entry.routes]


def state_of(fabric):
    """Everything a read must leave alone."""
    cache, overlay = fabric.resolution_cache, fabric.cluster.overlay
    return {
        "hits": cache.hits, "misses": cache.misses,
        "causes": fabric.metrics.counters("cache.miss."),
        "packets": [
            (str(host), rule.key, rule.packets)
            for host in overlay.hosts_with_tables()
            for rule in overlay.ovs_table(host).rules()
        ],
        "indexed": cache._indexed,
        "index": [
            {key: len(held) if type(held) is list else 1
             for key, held in index.items()}
            for index in (
                *cache._watch.values(), cache._by_rnic, cache._by_path,
            )
        ],
        "entries": {key: id(e) for key, e in cache._entries.items()},
    }


def test_a_same_host_pair_reads_the_route_its_probe_took(world):
    fabric, _, task = world
    same = pair(task, 0, 1)
    fabric.send_probe(*same, at=0.0)
    src_rnic = fabric.cluster.overlay.rnic_of(same[0])
    (paths,) = fabric.resolution_cache.paths_of([same])
    assert paths == [UnderlayPath((str(src_rnic),), ())]
    # Placement routes the same pair across rails, through a ToR.
    assert fabric.path_distribution(*same)[0].links


def test_a_fault_marked_entry_still_gives_its_paths(world):
    fabric, injector, task = world
    same, other = pair(task, 0, 1), pair(task, 0, 2)
    fabric.send_probe_batch([same, other], 0.0)
    injector.inject_issue(
        IssueType.RNIC_PORT_DOWN, fabric.cluster.overlay.rnic_of(same[0]),
        start=1.0,
    )
    entries = fabric.resolution_cache._entries
    assert entries[same].stale == entries[other].stale == "epoch_changed"
    assert fabric.resolution_cache.paths_of([same, other]) == [
        routes_of(fabric, same), routes_of(fabric, other),
    ]
    assert routes_of(fabric, same) != fabric.path_distribution(*same)


def test_a_pair_with_no_reached_entry_gets_the_placement_answer(world):
    fabric, _, task = world
    cold = pair(task, 2, 0)
    unreached = pair(task, 1, 2, slot=1)
    fabric.cluster.overlay.health(
        fabric.cluster.overlay.record_of(unreached[0]).veth
    ).down = True
    assert not fabric.send_probe(*unreached, at=0.0).ok
    assert not fabric.resolution_cache._entries[unreached].reached
    assert fabric.resolution_cache.paths_of([cold, unreached]) == [
        fabric.path_distribution(*cold), fabric.path_distribution(*unreached),
    ]
    assert all(fabric.path_distribution(*p) for p in (cold, unreached))


def test_a_read_walks_installs_and_counts_nothing(world):
    fabric, injector, task = world
    warm = [pair(task, 0, 1), pair(task, 0, 2), pair(task, 2, 1)]
    fabric.send_probe_batch(warm, 0.0)
    fabric.send_probe_batch(warm, 1.0)
    injector.inject_issue(
        IssueType.RNIC_PORT_DOWN,
        fabric.cluster.overlay.rnic_of(warm[0][0]), start=2.0,
    )
    before = state_of(fabric)
    assert before["packets"] and before["hits"] and before["indexed"]
    fabric.resolution_cache.paths_of(warm + [pair(task, 1, 0, slot=1)])
    assert state_of(fabric) == before


def test_the_mode_is_fixed_at_construction(cluster, running_task, rng):
    src = running_task.container(0).endpoint(0)
    dst = running_task.container(1).endpoint(1)   # across rails
    routes = {}
    for mode in ("static", "spray"):
        fabric = DataPlaneFabric(
            cluster, FaultInjector(cluster), rng, ecmp_mode=mode
        )
        assert fabric.ecmp_mode == mode
        fabric.send_probe(src, dst, at=0.0)
        (routes[mode],) = fabric.resolution_cache.paths_of([(src, dst)])
    assert routes["static"] == [fabric.traceroute(src, dst)]
    assert routes["spray"] == cluster.topology.ecmp_paths(
        cluster.overlay.rnic_of(src), cluster.overlay.rnic_of(dst)
    )
    assert len(routes["spray"]) > 1
