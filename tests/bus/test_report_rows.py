"""A round's probe reports are encoded once and recorded byte for byte
as each agent's slice encoded on its own.

The oracle is the encoding the round replaced: every agent's delivered
rows cut out of the round's batch and encoded alone, and every record
copied under ``"type": "record"`` and dumped by ``json.dumps``.
"""

import json

import numpy as np

from repro.bus.codec import ReportRows, encode_probe_rows
from repro.bus.core import TelemetryBus, Topic
from repro.bus.recorder import JsonlRecorder
from repro.chaos.faults import MonitorFaultInjector, MonitorIssue
from repro.core.agent import OverlayAgent
from repro.network.issues import IssueType
from repro.workloads.scenarios import build_scenario

SEED = 17
#: Every report of this agent is lost, every attempt: it probes and
#: delivers nothing.
SILENT = "task-0/node-2"
#: This agent is crashed from t = 20 s on: its share is ``None``.
CRASHED = "task-0/node-1"


def weather():
    chaos = MonitorFaultInjector(seed=SEED)
    chaos.inject_issue(
        MonitorIssue.PROBE_REPORT_LOSS, start=0.0, rate=0.4, fault_id=0
    )
    chaos.inject_issue(
        MonitorIssue.PROBE_REPORT_LOSS, start=0.0, rate=1.0,
        scope=SILENT + "/", fault_id=1,
    )
    chaos.inject_issue(
        MonitorIssue.AGENT_CRASH, start=20.0, scope=CRASHED, fault_id=2
    )
    return chaos


def parent_dump(row):
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def test_a_round_records_the_bytes_of_its_slices(tmp_path, monkeypatch):
    """Hardened agents losing and retrying reports, a crashed agent, an
    agent that delivers nothing and lost probes (null latency): every
    line the recorder writes is the line of the slice encoded alone."""
    oracle, slices = [], []
    record_round = OverlayAgent.record_round

    def tapped(agent, results, now, start, stop, rows):
        slices.append(encode_probe_rows(results[start:stop]))
        record_round(agent, results, now, start, stop, rows)

    def parent_line(record):
        row = {"type": "record"}
        row.update(record)
        if record["topic"] == Topic.PROBE_REPORTS:
            row["data"] = dict(record["data"], results=slices[-1])
        oracle.append(parent_dump(row))

    monkeypatch.setattr(OverlayAgent, "record_round", tapped)
    path = tmp_path / "run.jsonl"
    bus = TelemetryBus()
    with JsonlRecorder(bus, str(path), config={"seed": SEED}, seed=SEED):
        bus.subscribe(parent_line)
        scenario = build_scenario(
            num_containers=4, gpus_per_container=4, pp=2, seed=SEED,
            hosts_per_segment=4, bus=bus, chaos=weather(),
        )
        scenario.run_for(30)
        fault = scenario.inject(
            IssueType.RNIC_PORT_DOWN, scenario.rnic_of_rank(3)
        )
        scenario.run_for(30)
        scenario.clear(fault)
        scenario.run_for(10)
    lines = path.read_text().splitlines()
    assert lines[1:-1] == oracle

    records = [json.loads(line) for line in lines[1:-1]]
    reports = [r for r in records if r["topic"] == Topic.PROBE_REPORTS]
    rows = [row for r in reports for row in r["data"]["results"]]
    agents = {
        str(agent.container.id): agent
        for task_id in scenario.hunter.controller.monitored_tasks()
        for agent in scenario.hunter.controller.agents_of(task_id)
    }
    # Not vacuous: every case the round driver distinguishes happened.
    assert any(row[3] is None for row in rows)  # a lost probe
    assert sum(agent.prober.retries for agent in agents.values()) > 0
    assert any(r["topic"] == Topic.MONITOR for r in records)
    assert agents[CRASHED].rounds_skipped > 0
    assert agents[SILENT].prober.monitor_failures > 0
    assert SILENT not in {r["data"]["container"] for r in reports}
    # Some round published more than one agent's slice.
    per_round = {}
    for r in reports:
        per_round.setdefault(r["sim_time"], []).append(r)
    assert max(map(len, per_round.values())) > 1


def test_slices_share_one_encoding(monkeypatch):
    """The first slice asked for encodes the whole batch; later slices
    cut the same list; a round no owner publishes is never encoded."""
    scenario = build_scenario(
        num_containers=2, gpus_per_container=4, pp=2, seed=SEED,
        hosts_per_segment=2,
    )
    scenario.run_for(4)
    pairs = [
        pair for task_id in scenario.hunter.controller.monitored_tasks()
        for agent in scenario.hunter.controller.agents_of(task_id)
        for pair in agent.my_pairs()
    ]
    batch = scenario.fabric.send_probe_batch(pairs, 10.0)
    calls = []

    def counted(rows_of):
        calls.append(len(rows_of))
        return encode_probe_rows(rows_of)

    monkeypatch.setattr("repro.bus.codec.encode_probe_rows", counted)
    ReportRows(batch)  # never asked: never encoded
    rows = ReportRows(batch)
    cuts = np.linspace(0, len(batch), 4).astype(int).tolist()
    slices = [rows[a:b] for a, b in zip(cuts, cuts[1:])]
    assert calls == [len(batch)]
    assert slices == [
        encode_probe_rows(batch[a:b]) for a, b in zip(cuts, cuts[1:])
    ]
    assert rows[0:0] == [] and calls == [len(batch)]
