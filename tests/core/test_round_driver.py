"""The round driver's contract: same outputs as probing agent by agent,
from one fabric batch and no ping-list scan.

Counts and equalities only — nothing here reads a clock.
"""

from unittest import mock

import pytest

import repro.core.system as system
from repro.bus.core import TelemetryBus
from repro.bus.recorder import JsonlRecorder
from repro.chaos.faults import MonitorFaultInjector, MonitorIssue
from repro.core.pinglist import PingList
from repro.core.probing import run_probe_round
from repro.network.fabric import DataPlaneFabric
from repro.network.issues import IssueType
from repro.workloads.scenarios import build_scenario

SEED = 11


def per_agent_loop(agents, fabric, now, salt, on_result):
    """The loop the driver replaced: one ``execute_round`` per agent."""
    for agent in agents:
        for result in agent.execute_round(fabric, now, salt):
            on_result(result)


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

    def tapped(agents, fabric, now, salt, on_result):
        def tap(result):
            seen.append(result)
            on_result(result)

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
    run_probe_round(agents, small_scenario.fabric, 0.0, 0, None)
    assert calls == agents


def counting(owner, name):
    """``owner.name`` patched with a call-counting pass-through."""
    return mock.patch.object(
        owner, name, autospec=True, side_effect=getattr(owner, name)
    )


def test_fault_free_round_is_one_batch_and_no_list_scan():
    """The guard on the quadratic: however many agents a round has, it
    scans the whole ping list zero times and batches the fabric once."""
    scenario = build_scenario(
        num_containers=8, gpus_per_container=4, pp=2, seed=SEED,
        hosts_per_segment=4,
    )
    scenario.apply_skeleton()
    scenario.run_for(10)  # warm: flows installed, first rounds done
    agents = agents_of(scenario)
    assert len(agents) == 8
    pairs = len(
        scenario.hunter.controller.ping_list_of(scenario.task.id)
    )
    sent0 = scenario.fabric.probes_sent
    rounds = 5
    with counting(PingList, "active_pairs") as scans, counting(
        DataPlaneFabric, "send_probe_batch"
    ) as batches:
        scenario.run_for(rounds * scenario.hunter.probe_interval_s)
    assert scenario.hunter.events == []
    assert scenario.fabric.probes_sent - sent0 == rounds * pairs
    assert scans.call_count == 0
    assert batches.call_count == rounds
