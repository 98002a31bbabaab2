"""The round driver's contract: same outputs as probing agent by agent,
from one fabric batch and no ping-list scan.

Counts and equalities only — nothing here reads a clock.
"""

from collections import Counter
from unittest import mock

import numpy as np
import pytest

import repro.bus.codec as codec
import repro.cluster.identifiers as identifiers
import repro.core.system as system
from repro.bus.core import TelemetryBus, Topic
from repro.bus.recorder import JsonlRecorder
from repro.chaos.faults import (
    REPORT_LATE, REPORT_LOST, REPORT_OK, MonitorFaultInjector, MonitorIssue,
)
from repro.core.pinglist import PingList, ProbePair
from repro.core.probing import ResilientProber, run_probe_round
from repro.core.resilience import MAX_RETRIES, RETRY_TIMEOUT_S, backoff_s
from repro.network.draws import BACKOFF_COLUMN, PairwiseDrawSource
from repro.network.fabric import DataPlaneFabric, FlowResolutionCache
from repro.network.issues import IssueType
from repro.network.packet import ProbeBatch, ProbeResult
from repro.workloads.scenarios import build_scenario

SEED = 11


def per_agent_loop(agents, fabric, now, next_round):
    """The loop the driver replaced: one ``execute_round`` per agent,
    their batches laid end to end (an empty one, which carries no
    route columns, left out)."""
    batches = [
        agent.execute_round(fabric, now, next_round) for agent in agents
    ]
    sent = [batch for batch in batches if len(batch)] or batches[:1]
    return ProbeBatch.take(sent, np.arange(sum(map(len, sent))))


def lossy_monitor(rate=0.2):
    chaos = MonitorFaultInjector(seed=SEED)
    chaos.inject_issue(
        MonitorIssue.PROBE_REPORT_LOSS, start=0.0, rate=rate, fault_id=0
    )
    return chaos


def agents_of(scenario):
    controller = scenario.hunter.controller
    return [
        agent
        for task_id in controller.monitored_tasks()
        for agent in controller.agents_of(task_id)
    ]


def run_with(driver, chaos, path, monkeypatch):
    """A recorded run with a fault injected and cleared mid-run, every
    round driven by ``driver``; returns what the round produced."""
    seen = []

    def tapped(agents, fabric, now, next_round):
        batch = driver(agents, fabric, now, next_round)
        seen.extend(batch)
        return batch

    monkeypatch.setattr(system, "run_probe_round", tapped)
    bus = TelemetryBus()
    with JsonlRecorder(bus, str(path), seed=SEED):
        scenario = build_scenario(
            num_containers=4, gpus_per_container=4, pp=2, seed=SEED,
            hosts_per_segment=4, bus=bus, chaos=chaos,
        )
        scenario.run_for(60)
        fault = scenario.inject(
            IssueType.RNIC_PORT_DOWN, scenario.rnic_of_rank(4)
        )
        scenario.run_for(60)
        scenario.clear(fault)
        scenario.run_for(20)
    agents = agents_of(scenario)
    fabric = scenario.fabric
    return {
        "results": seen,
        "probes_sent": [agent.probes_sent for agent in agents],
        "retries": sum(
            agent.prober.retries for agent in agents if agent.prober
        ),
        "fabric": (
            fabric.probes_sent, fabric.probes_lost,
            fabric.resolution_cache.hits, fabric.resolution_cache.misses,
        ),
        "events": len(scenario.hunter.events),
        "bus_bytes": path.read_bytes(),
    }


@pytest.mark.parametrize("make_chaos", [lambda: None, lossy_monitor],
                         ids=["plain", "chaos"])
def test_driver_equals_the_per_agent_loop(
    make_chaos, tmp_path, monkeypatch
):
    driven = run_with(
        run_probe_round, make_chaos(), tmp_path / "driven.jsonl",
        monkeypatch,
    )
    looped = run_with(
        per_agent_loop, make_chaos(), tmp_path / "looped.jsonl",
        monkeypatch,
    )
    assert driven["results"] and driven["events"]  # not vacuous
    assert any(result.lost for result in driven["results"])
    # The hardened path is the one taken exactly when chaos is on.
    assert (driven["retries"] > 0) == (make_chaos() is not None)
    for key in driven:
        assert driven[key] == looped[key], key


def counting(owner, name):
    """``owner.name`` patched with a call-counting pass-through."""
    return mock.patch.object(
        owner, name, autospec=True, side_effect=getattr(owner, name)
    )


def test_a_hardened_round_is_one_batch_per_attempt():
    """A probe's draws are its own, so hardened agents share the round's
    batch: however many agents lose reports, a round is one batch plus
    one per retry attempt, and nothing is sent probe by probe."""
    scenario = build_scenario(
        num_containers=4, gpus_per_container=4, pp=2, seed=SEED,
        hosts_per_segment=4, chaos=lossy_monitor(0.5),
    )
    scenario.run_for(10)
    agents = agents_of(scenario)
    before = [agent.prober.retries for agent in agents]
    now = scenario.engine.now + 1.0
    with counting(DataPlaneFabric, "send_probe_batch") as batches, \
            counting(DataPlaneFabric, "send_probe") as singles, \
            counting(ProbeResult, "__init__") as results:
        delivered = run_probe_round(
            agents, scenario.fabric, now, now + 2.0,
        )
    retried = [
        agent.prober.retries - count
        for agent, count in zip(agents, before)
    ]
    assert sum(1 for count in retried if count) >= 2
    assert batches.call_count == 1 + MAX_RETRIES
    assert singles.call_count == 0
    assert results.call_count == 0  # assembled from columns
    assert isinstance(delivered, ProbeBatch) and delivered


def walk_alone(chaos, fabric, pair, now, next_round):
    """One probe's report walked alone, attempt by attempt, every send a
    one-probe batch: the sends it took, and whether a report arrived."""
    sent = [fabric.send_probe_batch([pair], now)]
    for attempt in range(MAX_RETRIES + 1):
        last = sent[-1]
        if chaos.report_fates(last, attempt)[0] == REPORT_OK:
            return sent, True
        if attempt == MAX_RETRIES:
            break
        u = chaos.draws.column(
            last.keys, last.sent_at, BACKOFF_COLUMN, attempt + 1
        )[0]
        at = last.sent_at[0] + RETRY_TIMEOUT_S + backoff_s(attempt + 1, u)
        if at >= next_round:
            break
        sent.append(fabric.send_probe_batch([pair], at))
    return sent, False


def twin_worlds():
    worlds = [
        build_scenario(
            num_containers=4, gpus_per_container=4, seed=SEED,
            hosts_per_segment=2, start_monitoring=False,
        )
        for _ in range(2)
    ]
    for world in worlds:
        world.injector.inject_issue(
            IssueType.RNIC_PORT_DOWN, world.rnic_of_rank(3), start=0.0
        )
    endpoints = worlds[0].task.endpoints()
    pairs = [
        ProbePair(src, dst) for src in endpoints for dst in endpoints
        if src != dst
    ]
    return worlds, pairs


class Share:
    """A probe owner with a fixed share: the rows it was given, and
    what its prober settled."""

    def __init__(self, pairs, prober=None):
        self.pairs, self.prober = pairs, prober
        self.rows = self.settled = None
        if prober is not None:
            prober.settle = self.settle

    def plan_round(self, now):
        return self.pairs

    def settle(self, now, delivered, failed, retried, probed=True):
        self.settled = (delivered, failed, retried)

    def record_round(self, batch, now, start, stop, rows):
        self.rows = batch[start:stop]


def check_rows_against_walked_alone(interval):
    """Every delivered row of a round with the next one `interval` seconds
    later equals the same probe walked alone, in a twin world, to the send
    its report arrived with, and reaches the owner whose share it was;
    returns how many retries the round sent."""
    worlds, pairs = twin_worlds()
    chaos = [lossy_monitor(0.5) for _ in worlds]
    half = len(pairs) // 2
    owners = [
        Share(pairs[:half], ResilientProber(chaos[0])), Share(None),
        Share(pairs[half:], ResilientProber(chaos[0])),
    ]
    delivered = run_probe_round(
        owners, worlds[0].fabric, 10.0, 10.0 + interval
    )
    expected, retried = [], 0
    for pair in pairs:
        sent, arrived = walk_alone(
            chaos[1], worlds[1].fabric, pair, 10.0, 10.0 + interval
        )
        retried += len(sent) - 1
        if arrived:
            expected.append(sent[-1][0])
    assert delivered == expected
    assert len(expected) < len(pairs)  # not vacuous
    assert any(row.lost for row in delivered)
    assert max(row.sent_at for row in delivered) < 10.0 + interval
    counts = [
        (owner.prober.monitor_failures, owner.prober.retries)
        if owner.prober else (0, 0) for owner in owners
    ]
    assert sum(count[1] for count in counts) == retried
    assert owners[1].rows == []  # a None share, with no prober
    assert sum(count[0] for count in counts) == len(pairs) - len(expected)
    for owner, (failed, retried_by) in zip(owners[::2], counts[::2]):
        assert owner.settled == (len(owner.rows), failed, retried_by)
        assert len(owner.rows) == len(owner.pairs) - failed
        assert {(row.src, row.dst) for row in owner.rows} <= {
            (pair.src, pair.dst) for pair in owner.pairs
        }
    assert owners[0].rows + owners[2].rows == delivered
    return retried, len(pairs)


def test_each_delivered_row_is_the_send_its_report_arrived_with():
    """The oracle the per-agent loop cannot be (it runs the same waves):
    every delivered row equals the same probe walked alone, in a twin
    world, to the send its report arrived with — the first send or its
    last retry — and a row whose reports never arrive is dropped."""
    retried, num_pairs = check_rows_against_walked_alone(2.0)
    assert retried > num_pairs // 2  # every retry lands in time


@pytest.mark.parametrize("interval", [1.0, 0.5])
def test_a_retry_after_the_next_round_is_dropped(interval):
    """With the next round close, a row whose retry would land after it
    is dropped, and every other row is still the send its report arrived
    with."""
    check_rows_against_walked_alone(interval)


def test_a_rows_fate_and_backoff_are_its_own():
    """The twin-world oracle of the monitor draws: a row's report fate
    (attempts 0-2) and its backoff uniform are the same drawn alone and
    drawn inside a shuffled batch — under a scoped fault, and a fault
    whose window ends between two attempts."""
    chaos = MonitorFaultInjector(seed=SEED)
    scope = "task-0/node-1"
    chaos.inject_issue(
        MonitorIssue.PROBE_REPORT_LOSS, start=0.0, rate=0.5,
        scope=scope, fault_id=3,
    )
    chaos.inject_issue(
        MonitorIssue.PROBE_LATE_REPLY, start=0.0, end=10.6, rate=0.5,
        fault_id=5,
    )
    scenario = build_scenario(
        num_containers=4, gpus_per_container=4, seed=SEED,
        hosts_per_segment=2, start_monitoring=False,
    )
    endpoints = scenario.task.endpoints()
    pairs = [(src, dst) for src in endpoints for dst in endpoints
             if src != dst]
    # Send times on both sides of the late fault's end.
    sent_at = 10.0 + 0.3 * (np.arange(len(pairs)) % 4)
    batch = scenario.fabric.send_probe_batch(pairs, sent_at)
    order = np.random.default_rng(SEED).permutation(len(pairs))
    shuffled = ProbeBatch.take([batch], order)
    in_scope = np.array([str(src).startswith(scope) for src, _ in pairs])
    by_attempt = []
    for attempt in range(MAX_RETRIES + 1):
        fates = chaos.report_fates(batch, attempt)
        by_attempt.append(fates)
        assert (chaos.report_fates(shuffled, attempt) == fates[order]).all()
        for row in range(0, len(pairs), 7):
            alone = ProbeBatch.take([batch], [row])
            assert chaos.report_fates(alone, attempt)[0] == fates[row]
        assert not (fates[~in_scope] == REPORT_LOST).any()
        assert (fates[in_scope] == REPORT_LOST).any()
        assert not (fates[sent_at >= 10.6] == REPORT_LATE).any()
        assert (fates[sent_at < 10.6] == REPORT_LATE).any()
    assert not (by_attempt[0] == by_attempt[1]).all()
    uniforms = []
    for attempt in range(1, MAX_RETRIES + 1):
        u = chaos.draws.column(batch.keys, sent_at, BACKOFF_COLUMN, attempt)
        uniforms.append(u)
        assert (chaos.draws.column(
            shuffled.keys, shuffled.sent_at, BACKOFF_COLUMN, attempt
        ) == u[order]).all()
        assert chaos.draws.column(
            batch.keys[:1], sent_at[0], BACKOFF_COLUMN, attempt
        )[0] == u[0]
    assert not (uniforms[0] == uniforms[1]).any()


def test_a_round_no_report_fault_covers_draws_no_fate():
    """The count guard: report faults before and after the round, none
    at its send time — a hardened round draws no monitor column and
    sends exactly one fabric batch."""
    chaos = MonitorFaultInjector(seed=SEED)
    chaos.inject_issue(
        MonitorIssue.PROBE_REPORT_LOSS, start=0.0, end=5.0, rate=1.0
    )
    chaos.inject_issue(
        MonitorIssue.PROBE_LATE_REPLY, start=100.0, rate=1.0
    )
    scenario = build_scenario(
        num_containers=4, gpus_per_container=4, pp=2, seed=SEED,
        hosts_per_segment=4, chaos=chaos,
    )
    scenario.run_for(10)
    agents = agents_of(scenario)
    assert agents and all(agent.prober for agent in agents)
    now = scenario.engine.now + 1.0
    with counting(PairwiseDrawSource, "column") as columns, \
            counting(DataPlaneFabric, "send_probe_batch") as batches:
        delivered = run_probe_round(
            agents, scenario.fabric, now, now + 2.0,
        )
    assert columns.call_count == 0
    assert batches.call_count == 1
    assert len(delivered) == sum(
        len(agent.my_pairs()) for agent in agents
    )


def test_fault_free_round_is_one_batch_and_no_list_scan():
    """The guard on the quadratic and on the per-probe object: however
    many agents a round has, a warm fault-free round scans the whole
    ping list zero times, batches the fabric once, and builds no
    ``ProbeResult``, sorts no pair and looks up no resolution — while
    every flow rule still counts each packet that crossed it."""
    scenario = build_scenario(
        num_containers=8, gpus_per_container=4, pp=2, seed=SEED,
        hosts_per_segment=4,
    )
    scenario.apply_skeleton()
    scenario.run_for(10)  # warm: flows installed, first rounds done
    agents = agents_of(scenario)
    assert len(agents) == 8
    ping_list = scenario.hunter.controller.ping_list_of(scenario.task.id)
    pairs = len(ping_list)
    # How often one round crosses each flow rule, from the resolutions.
    crossings = Counter()
    rules = {}
    for pair in ping_list.active_pairs():
        resolution = scenario.fabric.resolution_cache._entries[
            (pair.src, pair.dst)
        ]
        for rule in resolution.trace.rules:
            crossings[id(rule)] += 1
            rules[id(rule)] = rule
    before = {key: rule.packets for key, rule in rules.items()}
    sent0 = scenario.fabric.probes_sent
    hits0 = scenario.fabric.resolution_cache.hits
    rounds = 5
    with counting(PingList, "active_pairs") as scans, counting(
        DataPlaneFabric, "send_probe_batch"
    ) as batches, counting(ProbeResult, "__init__") as results, counting(
        ProbePair, "canonical"
    ) as sorts, counting(FlowResolutionCache, "_resolve_row") as lookups:
        scenario.run_for(rounds * scenario.hunter.probe_interval_s)
    assert scenario.hunter.events == []
    assert scenario.fabric.probes_sent - sent0 == rounds * pairs
    assert scans.call_count == 0
    assert batches.call_count == rounds
    assert results.call_count == 0
    assert sorts.call_count == 0
    assert lookups.call_count == 0
    assert scenario.fabric.resolution_cache.hits - hits0 == rounds * pairs
    assert max(crossings.values()) > 1  # rules shared between pairs
    for key, rule in rules.items():
        assert rule.packets - before[key] == rounds * crossings[key]


def test_a_warm_round_names_nothing_and_encodes_once(tmp_path):
    """On a bus, a warm round's reports cost their bytes: every
    identifier it names already carries its name, and the round's
    delivered rows are encoded once for all its agents."""
    bus = TelemetryBus()
    with JsonlRecorder(bus, str(tmp_path / "run.jsonl"), seed=SEED):
        scenario = build_scenario(
            num_containers=8, gpus_per_container=4, pp=2, seed=SEED,
            hosts_per_segment=4, bus=bus,
        )
        scenario.apply_skeleton()
        scenario.run_for(10)  # warm: the first rounds named everything
        published = bus.published
        with mock.patch.object(
            identifiers, "_set", side_effect=object.__setattr__
        ) as stores, mock.patch.object(
            codec, "encode_probe_rows", side_effect=codec.encode_probe_rows
        ) as encodes:
            scenario.run_for(scenario.hunter.probe_interval_s)
        reports = [
            record for record in bus.history(Topic.PROBE_REPORTS)
            if record["seq"] > published
        ]
    assert len(reports) == sum(
        1 for agent in agents_of(scenario) if agent.my_pairs()
    ) > 1
    assert encodes.call_count == 1
    assert [
        call.args[1] for call in stores.call_args_list
    ].count("_name") == 0
    # ... because they were stored before, not because none is stored.
    endpoints = [
        endpoint for agent in agents_of(scenario)
        for pair in agent.my_pairs() for endpoint in (pair.src, pair.dst)
    ]
    assert all(hasattr(endpoint, "_name") for endpoint in endpoints)
