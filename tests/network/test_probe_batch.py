"""The probe batch against the loop it replaced.

``send_probe_batch`` answers a round as columns and, when the round's
pair sequence and the whole-overlay stamp are the ones it last resolved
under, resolves every probe together.  The reference here is the
per-probe loop of the parent commit (one ``FlowResolutionCache.resolve``
and one ``ProbeResult`` per probe, in order), kept verbatim: two
identically seeded worlds run one schedule — rounds, a fault injected
and cleared, a table edit, a detach, an ECMP switch — one through the
reference and one through the fabric, and every row, every cache
counter and every flow rule's packet count must agree after every
round.  Long enough that most rounds take the bulk path.
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster.identifiers import LinkId
from repro.network.fabric import _merge_fault_effects
from repro.network.issues import GrayIssueType, IssueType
from repro.network.packet import ProbeBatch, ProbeResult
from repro.workloads.scenarios import build_scenario


def parent_loop(fabric, pairs, at):
    """``DataPlaneFabric.send_probe_batch`` as of 34a2c6b, drawing from
    the keyed source (the fabric's only one since the sequential stream
    was deleted)."""
    endpoints = [
        (pair.src, pair.dst) if hasattr(pair, "src") else tuple(pair)
        for pair in pairs
    ]
    n = len(endpoints)
    if n == 0:
        return []
    draws = fabric._draws.uniforms(
        fabric._draws.keys_of(endpoints), at,
        range(6 if fabric.spraying else 5),
    )
    cache = fabric.resolution_cache
    results = [None] * n
    lost = 0
    delivered, delivered_res, delivered_path = [], [], []
    hops, switches, extra_us, software = [], [], [], []
    for i, (src, dst) in enumerate(endpoints):
        res = cache.resolve(src, dst)
        trace = res.trace
        if not res.reached:
            lost += 1
            results[i] = ProbeResult(
                src=src, dst=dst, sent_at=at, lost=True,
                reason=res.overlay_reason,
                src_rnic=trace.src_rnic, dst_rnic=trace.dst_rnic,
                overlay_trace=trace,
            )
            continue
        routes = res.routes
        route = routes[0] if len(routes) == 1 else routes[
            min(int(draws[i, 5] * len(routes)), len(routes) - 1)
        ]
        effects = _merge_fault_effects(
            route.faults, res.overlay_fx, at, res.fhash
        )
        if effects.down:
            lost += 1
            results[i] = ProbeResult(
                src=src, dst=dst, sent_at=at, lost=True,
                reason="component down on path",
                src_rnic=trace.src_rnic, dst_rnic=trace.dst_rnic,
                underlay_path=route.path, overlay_trace=trace,
            )
            continue
        if effects.loss_rate > 0 and float(
            draws[i, 0]
        ) < effects.loss_rate:
            lost += 1
            results[i] = ProbeResult(
                src=src, dst=dst, sent_at=at, lost=True,
                reason="packet dropped on path",
                src_rnic=trace.src_rnic, dst_rnic=trace.dst_rnic,
                underlay_path=route.path, overlay_trace=trace,
            )
            continue
        delivered.append(i)
        delivered_res.append(res)
        delivered_path.append(route.path)
        hops.append(route.hops)
        switches.append(route.switches)
        extra_us.append(effects.extra_latency_us)
        software.append(trace.software_path or effects.force_software_path)
    if delivered:
        rows = np.asarray(delivered)
        latencies = fabric.latency_model.rtt_from_uniforms(
            draws[rows, 1], draws[rows, 2],
            num_links=np.asarray(hops), num_switches=np.asarray(switches),
            extra_us=np.asarray(extra_us),
            software_path=np.asarray(software),
        )
        latencies = latencies + fabric.congestion.spikes_from_uniforms(
            draws[rows, 3], draws[rows, 4]
        )
        for j, i in enumerate(delivered):
            src, dst = endpoints[i]
            res = delivered_res[j]
            results[i] = ProbeResult(
                src=src, dst=dst, sent_at=at, lost=False,
                latency_us=float(latencies[j]),
                software_path=bool(software[j]),
                src_rnic=res.trace.src_rnic, dst_rnic=res.trace.dst_rnic,
                underlay_path=delivered_path[j],
                overlay_trace=res.trace,
            )
    fabric.metrics.increment("probes.sent", n)
    if lost:
        fabric.metrics.increment("probes.lost", lost)
    if sum(software):
        fabric.metrics.increment("probes.software_path", sum(software))
    return results


def build(seed, spray=False):
    return build_scenario(
        num_containers=4, gpus_per_container=4, seed=seed,
        hosts_per_segment=2, start_monitoring=False,
        ecmp_mode="spray" if spray else "static",
    )


def pairs_of(scenario):
    endpoints = scenario.task.endpoints()
    n = len(endpoints)
    return [
        (endpoints[i], endpoints[(i + stride) % n])
        for stride in (1, n // 2)
        for i in range(n)
        if endpoints[i] != endpoints[(i + stride) % n]
    ]


def packets_of(scenario):
    """Every flow rule's packet counter, by table and key."""
    overlay = scenario.cluster.overlay
    return {
        (str(host), str(rule.key)): rule.packets
        for host in overlay.hosts_with_tables()
        for rule in overlay.ovs_table(host).rules()
    }


def counters_of(scenario):
    cache = scenario.fabric.resolution_cache
    metrics = scenario.fabric.metrics
    return {
        "hits": cache.hits, "misses": cache.misses,
        **{
            name: metrics.counter(name)
            for name in (
                "cache.miss.cold", "cache.miss.table_changed",
                "cache.miss.epoch_changed", "probes.sent", "probes.lost",
                "probes.software_path",
            )
        },
    }


def uplink(scenario, rank):
    rnic = scenario.cluster.overlay.rnic_of(
        scenario.task.endpoints()[rank]
    )
    return LinkId.between(
        scenario.topology.tor_of(rnic), scenario.topology.spines[1]
    )


def schedule(scenario, round_index, state):
    """What happens to the world before each round."""
    overlay = scenario.cluster.overlay
    if round_index == 4:   # a lossy spine uplink: drops on some routes
        state["fault"] = scenario.injector.inject_issue(
            IssueType.CRC_ERROR, uplink(scenario, 0),
            start=float(round_index), loss_rate=0.5,
        )
    if round_index == 8:   # a port down: "component down on path"
        state["down"] = scenario.injector.inject_issue(
            IssueType.RNIC_PORT_DOWN,
            overlay.rnic_of(scenario.task.endpoints()[5]),
            start=float(round_index),
        )
    if round_index == 11:
        scenario.injector.clear(state["fault"], at=float(round_index))
        scenario.injector.clear(state["down"], at=float(round_index))
    if round_index == 14:  # a rule yanked from under the warm vector
        host = overlay.hosts_with_tables()[0]
        table = overlay.ovs_table(host)
        table.remove(table.keys()[0])
    if round_index == 17:  # unreached rows
        overlay.detach_container(scenario.task.container(3))
    if round_index == 20:
        scenario.fabric.set_ecmp_mode(
            "static" if scenario.fabric.spraying else "spray"
        )
    if round_index == 23:  # latency added, software path forced
        state["slow"] = scenario.injector.inject_issue(
            GrayIssueType.CONGESTION_COLLAPSE, uplink(scenario, 2),
            start=float(round_index),
        )


ROUNDS = 27
FIELDS = [field.name for field in dataclasses.fields(ProbeResult)]
assert len(FIELDS) == 11


@pytest.mark.parametrize("spray", [False, True], ids=["static", "spray"])
def test_every_row_equals_the_parent_loop(spray):
    ref, new = build(7, spray), build(7, spray)
    pairs_ref, pairs_new = pairs_of(ref), pairs_of(new)
    ref_state, new_state = {}, {}
    bulk_rounds = 0
    fates = set()
    for round_index in range(ROUNDS):
        schedule(ref, round_index, ref_state)
        schedule(new, round_index, new_state)
        at = float(round_index)
        expected = parent_loop(ref.fabric, pairs_ref, at)
        misses = new.fabric.resolution_cache.misses
        hits = new.fabric.resolution_cache.hits
        actual = new.fabric.send_probe_batch(pairs_new, at)
        assert isinstance(actual, ProbeBatch)
        for mine, theirs in zip(actual, expected):
            # All eleven fields, one by one so a failure names one.
            for field in FIELDS:
                assert getattr(mine, field) == getattr(theirs, field), (
                    round_index, field
                )
        assert actual == expected and len(actual) == len(expected)
        assert counters_of(new) == counters_of(ref), round_index
        assert packets_of(new) == packets_of(ref), round_index
        bulk_rounds += (
            new.fabric.resolution_cache.misses == misses
            and new.fabric.resolution_cache.hits == hits + len(pairs_new)
        )
        fates.update(result.reason for result in actual)
        fates.update(
            "software" for result in actual if result.software_path
        )
    # Not vacuous: every kind of row occurred, most rounds were all-hit.
    assert fates >= {
        "", "packet dropped on path", "component down on path", "software",
    }
    assert any("unreachable" in fate for fate in fates)
    assert bulk_rounds >= ROUNDS // 2


def test_bulk_batch_counts_like_the_same_pairs_sent_one_by_one():
    """``rule.packets``, ``hits`` / ``misses`` and every miss cause,
    all-hit bulk batches against ``send_probe`` pair by pair."""
    one, bulk = build(3), build(3)
    pairs_one, pairs_bulk = pairs_of(one), pairs_of(bulk)
    for round_index in range(6):
        at = float(round_index)
        expected = [
            one.fabric.send_probe(src, dst, at) for src, dst in pairs_one
        ]
        assert bulk.fabric.send_probe_batch(pairs_bulk, at) == expected
        assert counters_of(bulk) == counters_of(one)
        assert packets_of(bulk) == packets_of(one)
    # A pair sequence with a repeat: the rule is crossed twice a round.
    twice = pairs_bulk[:3] + pairs_bulk[:3]
    before = packets_of(bulk)
    for round_index in range(6, 10):
        bulk.fabric.send_probe_batch(twice, float(round_index))
    crossed = {
        key: count - before[key]
        for key, count in packets_of(bulk).items() if count != before[key]
    }
    assert crossed and set(crossed.values()) <= {8, 16, 24, 32, 40, 48}


def test_the_vector_is_dropped_with_the_cache():
    """``invalidate()`` forgets the last batch too: the next round is
    cold misses, exactly as for one probe at a time."""
    scenario = build(5)
    pairs = pairs_of(scenario)
    cache = scenario.fabric.resolution_cache
    for round_index in range(3):
        scenario.fabric.send_probe_batch(pairs, float(round_index))
    misses = cache.misses
    cache.invalidate()
    scenario.fabric.send_probe_batch(pairs, 3.0)
    assert cache.misses == misses + len(pairs)


class TestProbeBatchIsASequenceOfResults:
    @pytest.fixture(scope="class")
    def batch_and_rows(self):
        scenario = build(9)
        scenario.cluster.overlay.detach_container(
            scenario.task.container(2)
        )
        pairs = pairs_of(scenario)
        twin = build(9)
        twin.cluster.overlay.detach_container(twin.task.container(2))
        return (
            scenario.fabric.send_probe_batch(pairs, 1.5),
            parent_loop(twin.fabric, pairs_of(twin), 1.5),
        )

    def test_len_index_iteration(self, batch_and_rows):
        batch, rows = batch_and_rows
        assert len(batch) == len(rows) > 0
        assert [batch[i] for i in range(len(batch))] == rows
        assert list(batch) == rows
        assert batch[-1] == rows[-1]
        with pytest.raises(IndexError):
            batch[len(batch)]
        assert rows[3] in batch and batch.index(rows[3]) == 3

    def test_slices_are_batches(self, batch_and_rows):
        batch, rows = batch_and_rows
        part = batch[2:7]
        assert isinstance(part, ProbeBatch)
        assert part == rows[2:7] and len(part) == 5
        assert part[1:3] == rows[3:5]
        assert batch[:0] == [] and not batch[:0]

    def test_equality_both_ways(self, batch_and_rows):
        batch, rows = batch_and_rows
        assert batch == rows and rows == batch and batch == batch
        assert batch != rows[:-1]
        skewed = list(rows)
        skewed[4] = dataclasses.replace(skewed[4], sent_at=9.0)
        assert batch != skewed
        assert batch + batch[:1] == rows + rows[:1]

    def test_columns_agree_with_rows(self, batch_and_rows):
        batch, rows = batch_and_rows
        assert batch.lost.tolist() == [row.lost for row in rows]
        assert any(batch.lost) and not all(batch.lost)
        assert np.isnan(batch.latency_us[batch.lost]).all()
        assert batch.latency_us[~batch.lost].tolist() == [
            row.latency_us for row in rows if not row.lost
        ]
        assert batch.sent_at.tolist() == [1.5] * len(rows)
        assert (batch.route[batch.lost] == -1).all()  # never reached

    def test_take_selects_rows_of_several_batches(self, batch_and_rows):
        batch, rows = batch_and_rows
        n = len(rows)
        taken = ProbeBatch.take([batch, batch[2:5]], [n, 4, 0, n + 2])
        assert taken == [rows[2], rows[4], rows[0], rows[4]]
        assert taken.keys.tolist() == batch.keys[[2, 4, 0, 4]].tolist()
        assert ProbeBatch.take([batch], []) == []
        bare = ProbeBatch(batch.pairs, batch.sent_at, batch.lost,
                          batch.latency_us)
        mixed = ProbeBatch.take([batch, bare], [n + 1, 1])
        assert mixed.resolutions is None and mixed.keys is None
        assert mixed.lost.tolist() == [rows[1].lost] * 2
