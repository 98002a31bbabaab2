"""Tests for overlay/underlay agents and the resource model."""

import pytest

from repro.core.agent import AgentResourceModel, OverlayAgent, UnderlayAgent
from repro.core.pinglist import PingList
from repro.core.rnic_validation import RnicValidator
from repro.network.fabric import DataPlaneFabric
from repro.network.faults import FaultInjector


@pytest.fixture
def fabric(cluster, rng):
    return DataPlaneFabric(cluster, FaultInjector(cluster), rng)


def make_agent(task, rank=0):
    ping_list = PingList.basic(
        task.endpoints(),
        lambda e: task.containers[e.container].rail_of(e),
    )
    container = task.container(rank)
    return OverlayAgent(container, ping_list, started_at=0.0), ping_list


class TestOverlayAgent:
    def test_registration_activates_targets(self, running_task):
        agent, ping_list = make_agent(running_task)
        peer, _ = make_agent(running_task, rank=1)
        agent.ping_list = ping_list
        assert agent.my_pairs() == []
        agent.register()
        assert agent.my_pairs() == []  # peers not yet registered
        for rank in range(1, 4):
            ping_list.register(running_task.container(rank).id)
        assert agent.my_pairs() != []

    def test_agent_only_probes_own_sources(self, running_task, fabric):
        agent, ping_list = make_agent(running_task)
        for container in running_task.all_containers():
            ping_list.register(container.id)
        mine = set(agent.container.endpoints())
        for pair in agent.my_pairs():
            assert pair.src in mine
        results = agent.execute_round(fabric, now=0.0)
        assert len(results) == len(agent.my_pairs())
        assert agent.probes_sent == len(results)

    def test_no_duplicate_probes_across_agents(self, running_task, fabric):
        agents = []
        ping_list = PingList.basic(
            running_task.endpoints(),
            lambda e: running_task.containers[e.container].rail_of(e),
        )
        for rank in range(4):
            agents.append(OverlayAgent(
                running_task.container(rank), ping_list, started_at=0.0
            ))
        for container in running_task.all_containers():
            ping_list.register(container.id)
        all_pairs = [p for a in agents for p in a.my_pairs()]
        assert len(all_pairs) == len(set(all_pairs)) == len(ping_list)


class TestResourceModel:
    def test_cpu_converges_to_steady_state(self):
        model = AgentResourceModel()
        early = model.cpu_percent(0.0)
        late = model.cpu_percent(3600.0)
        assert early > late
        assert late == pytest.approx(model.steady_cpu_percent, abs=0.1)

    def test_memory_rises_to_35mb(self):
        model = AgentResourceModel()
        assert model.memory_mb(0.0) < model.memory_mb(3600.0)
        assert model.memory_mb(3600.0) == pytest.approx(35.0, abs=0.5)

    def test_more_targets_cost_slightly_more_cpu(self):
        model = AgentResourceModel()
        assert model.cpu_percent(1000.0, active_targets=100) > \
            model.cpu_percent(1000.0, active_targets=0)

    def test_agent_reports_current_usage(self, running_task):
        agent, ping_list = make_agent(running_task)
        cpu = agent.cpu_percent(now=600.0)
        mem = agent.memory_mb(now=600.0)
        assert 0.9 < cpu < 5.0
        assert 10.0 < mem <= 36.0


class TestUnderlayAgent:
    def test_traceroute_via_host_agent(
        self, cluster, running_task, fabric
    ):
        host = running_task.container(0).host
        agent = UnderlayAgent(host, fabric, RnicValidator(cluster))
        src = running_task.container(0).endpoint(0)
        dst = running_task.container(1).endpoint(0)
        path = agent.traceroute(src, dst)
        assert path is not None
        assert path.devices[0].startswith(str(host))

    def test_dump_covers_every_rnic(self, cluster, running_task, fabric):
        host = running_task.container(0).host
        agent = UnderlayAgent(host, fabric, RnicValidator(cluster))
        findings = agent.dump_flow_tables()
        assert len(findings) == len(cluster.host(host).rnics)
