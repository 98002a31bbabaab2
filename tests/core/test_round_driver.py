"""The round driver's contract: same outputs as probing agent by agent,
from one fabric batch and no ping-list scan.

Counts and equalities only — nothing here reads a clock.
"""

from collections import Counter
from unittest import mock

import pytest

import repro.core.system as system
from repro.bus.core import TelemetryBus
from repro.bus.recorder import JsonlRecorder
from repro.chaos.faults import MonitorFaultInjector, MonitorIssue
from repro.core.pinglist import PingList, ProbePair
from repro.core.probing import ResilientProber, run_probe_round, send_round
from repro.core.resilience import RetryPolicy
from repro.network.fabric import DataPlaneFabric, FlowResolutionCache
from repro.network.issues import IssueType
from repro.network.packet import ProbeResult
from repro.workloads.scenarios import build_scenario

SEED = 11


def per_agent_loop(agents, fabric, now, on_batch):
    """The loop the driver replaced: one ``execute_round`` per agent."""
    for agent in agents:
        on_batch(agent.execute_round(fabric, now))


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

    def tapped(agents, fabric, now, on_batch):
        def tap(batch):
            seen.extend(batch)
            on_batch(batch)

        driver(agents, fabric, now, tap)

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
    delivered = []
    with counting(DataPlaneFabric, "send_probe_batch") as batches, \
            counting(DataPlaneFabric, "send_probe") as singles:
        run_probe_round(
            agents, scenario.fabric, scenario.engine.now + 1.0,
            delivered.append,
        )
    retried = [
        agent.prober.retries - count
        for agent, count in zip(agents, before)
    ]
    assert sum(1 for count in retried if count) >= 2
    assert batches.call_count == 1 + RetryPolicy().max_retries
    assert singles.call_count == 0
    assert len(delivered) == 1 and delivered[0]


def test_each_delivered_row_is_the_send_its_report_arrived_with():
    """The oracle the per-agent loop cannot be (it runs the same waves):
    every delivered row equals the same probe sent alone, in a twin
    world, at the send time its report arrived with — the first send or
    its last retry — and a row whose reports never arrive is dropped."""
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
    probers = [ResilientProber(lossy_monitor(0.5)) for _ in worlds]
    endpoints = worlds[0].task.endpoints()
    pairs = [
        ProbePair(src, dst) for src in endpoints for dst in endpoints
        if src != dst
    ]
    half = len(pairs) // 2
    delivered, counts = send_round(
        worlds[0].fabric, [pairs[:half], None, pairs[half:]],
        [probers[0], None, probers[0]], 10.0,
    )
    expected, retried = [], 0
    for pair in pairs:
        times, arrived = probers[1].report_fate(pair, 10.0)
        retried += len(times)
        sent = [worlds[1].fabric.send_probe(pair.src, pair.dst, at)
                for at in [10.0] + times]
        if arrived:
            expected.append(sent[-1])
    assert delivered == expected
    assert retried and len(expected) < len(pairs)  # not vacuous
    assert any(row.lost for row in delivered)
    assert sum(count[1] for count in counts) == retried
    assert counts[1] == (0, 0)
    assert sum(count[0] for count in counts) == len(pairs) - len(expected)


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
    ) as sorts, counting(FlowResolutionCache, "resolve") as lookups:
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
