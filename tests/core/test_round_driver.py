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
from repro.core.probing import run_probe_round
from repro.network.fabric import DataPlaneFabric, FlowResolutionCache
from repro.network.issues import IssueType
from repro.network.packet import ProbeResult
from repro.workloads.scenarios import build_scenario

SEED = 11


def per_agent_loop(agents, fabric, now, salt, on_batch):
    """The loop the driver replaced: one ``execute_round`` per agent."""
    for agent in agents:
        on_batch(agent.execute_round(fabric, now, salt))


def lossy_monitor():
    chaos = MonitorFaultInjector(seed=SEED)
    chaos.inject_issue(
        MonitorIssue.PROBE_REPORT_LOSS, start=0.0, rate=0.2, fault_id=0
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

    def tapped(agents, fabric, now, salt, on_batch):
        def tap(batch):
            seen.extend(batch)
            on_batch(batch)

        driver(agents, fabric, now, salt, tap)

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


def test_mixed_round_goes_agent_by_agent(small_scenario, monkeypatch):
    """One hardened agent is enough: its retries draw from the fabric
    stream between batches, so nobody's batch may move past them."""
    agents = agents_of(small_scenario)
    agents[1].prober = object()  # never reached: execute_round is stubbed
    calls = []
    for agent in agents:
        monkeypatch.setattr(
            agent, "execute_round",
            lambda fabric, now, salt, agent=agent: calls.append(agent) or [],
        )
    run_probe_round(
        agents, small_scenario.fabric, 0.0, 0, lambda batch: None
    )
    assert calls == agents


def counting(owner, name):
    """``owner.name`` patched with a call-counting pass-through."""
    return mock.patch.object(
        owner, name, autospec=True, side_effect=getattr(owner, name)
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
            (pair.src, pair.dst, 0)
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
