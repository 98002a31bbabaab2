"""Per-rule packet counters stay exact when bulk answers count them in
one array (:class:`~repro.cluster.flowtable.BulkCounts`).

A warm batch answered in bulk adds its crossings to its overlay's cell
array; walks and per-row hits count on the rule's own int.  Each test
holds ``rule.packets`` to what probing pair by pair would have counted.
"""

from repro.fleet.runtime import build_fleet_replica
from repro.fleet.spec import FleetSpec, TenantSpec

from tests.network.test_probe_batch import build, packets_of, pairs_of


def crossings_of(vector, rule):
    """How often one batch of ``vector``'s rows crosses ``rule``."""
    return sum(
        each is rule for res in vector.resolutions for each in res.trace.rules
    )


def test_counts_stay_exact_when_the_cell_array_grows():
    """Cells assigned past the array's length move every count with
    them: a bulk world whose array two pair sequences grew counts what
    sending pair by pair counts."""
    one, bulk = build(3), build(3)
    counts = bulk.cluster.overlay.bulk_counts
    pairs_one, pairs_bulk = pairs_of(one), pairs_of(bulk)
    half = len(pairs_bulk) // 2
    sizes = []
    for sequence in (slice(0, half), slice(half // 2, None)):
        for _ in range(3):
            at = float(len(sizes))
            for src, dst in pairs_one[sequence]:
                one.fabric.send_probe(src, dst, at)
            bulk.fabric.send_probe_batch(pairs_bulk[sequence], at)
            assert packets_of(bulk) == packets_of(one)
            sizes.append(counts.size)
    # Both sequences were counted in bulk, and the second grew an array
    # the first had already filled with counts.
    assert 0 < sizes[2] < sizes[-1] <= len(counts.values)


def test_a_replaced_rule_keeps_its_count_and_its_successor_starts_at_zero():
    """A rule removed while the last bulk vector holds its cell keeps
    what it counted; the next batch re-walks and installs a new rule,
    which counts from zero in a cell of its own."""
    scenario = build(3)
    pairs = pairs_of(scenario)
    fabric, cache = scenario.fabric, scenario.fabric.resolution_cache
    for at in range(3):  # a cold pass, then two bulk answers
        fabric.send_probe_batch(pairs, float(at))
    vector = cache._vector
    assert vector.rule_hits is not None
    # A cross-host pair's first hop: its re-walk installs the same ENCAP.
    trace = next(
        res.trace for res in vector.resolutions
        if res.reached and res.trace.src_rnic.host != res.trace.dst_rnic.host
    )
    old, table = trace.rules[0], trace.tables[0]
    assert table.lookup(old.key) is old and old.counts is not None
    kept = old.packets
    assert kept == 3 * crossings_of(vector, old)

    table.remove(old.key)
    misses = cache.misses
    for at in (3.0, 4.0):  # a re-walking pass, then a bulk answer
        fabric.send_probe_batch(pairs, at)
    assert cache.misses > misses
    new = table.lookup(old.key)
    assert new is not None and new is not old
    assert old.packets == kept
    assert new.action == old.action
    assert new.counts is old.counts and new.cell != old.cell
    assert new.packets == 2 * crossings_of(cache._vector, new) > 0


def test_replicas_in_one_process_count_apart():
    """Two fleet replicas built in one process own one cell array each:
    probing one four times and the other twice counts 4:2 on every
    rule."""
    spec = FleetSpec(seed=5, tenants=(TenantSpec(name="a"),))
    replicas = [build_fleet_replica(spec), build_fleet_replica(spec)]
    tables = []
    for replica, rounds in zip(replicas, (4, 2)):
        task = replica.orchestrator.submit_task(
            4, 4, task_id=spec.task_id_of("a"), instant_startup=True
        )
        replica.engine.run_until(replica.engine.now)
        endpoints = task.endpoints()
        pairs = [
            (src, dst) for src in endpoints for dst in endpoints
            if src != dst
        ]
        for at in range(rounds):
            replica.fabric.send_probe_batch(pairs, float(at))
        overlay = replica.cluster.overlay
        tables.append({
            (str(host), str(rule.key)): rule.packets
            for host in overlay.hosts_with_tables()
            for rule in overlay.ovs_table(host).rules()
        })
    a, b = replicas
    assert a.cluster.overlay.bulk_counts is not b.cluster.overlay.bulk_counts
    assert b.cluster.overlay.bulk_counts.size > 0  # counted in bulk
    assert tables[0].keys() == tables[1].keys()
    assert any(tables[1].values())
    assert all(
        tables[0][key] == 2 * count for key, count in tables[1].items()
    )
