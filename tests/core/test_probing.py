"""Tests for probe round execution and round-time estimation."""

from repro.cluster.identifiers import ContainerId, EndpointId, TaskId
from repro.core.agent import OverlayAgent
from repro.core.pinglist import PingList, ProbePair
from repro.core.probing import (
    ProbeCostModel,
    estimate_round_duration,
    probes_per_round,
    run_probe_round,
)
from repro.network.fabric import DataPlaneFabric
from repro.network.faults import FaultInjector


def endpoints(num_containers, slots):
    return [
        EndpointId(ContainerId(TaskId(0), rank), slot)
        for rank in range(num_containers)
        for slot in range(slots)
    ]


class TestRoundEstimation:
    def test_empty_list_costs_nothing(self):
        assert estimate_round_duration(PingList()) == 0.0

    def test_full_mesh_scales_with_targets(self):
        eps = endpoints(8, 4)
        mesh = PingList.full_mesh(eps)
        cost = ProbeCostModel(per_probe_s=1.0, round_overhead_s=4.0)
        duration = estimate_round_duration(mesh, cost)
        # Only canonical-source pairs count, so the first endpoint —
        # source of all its 7 x 4 pairs — is busiest.
        assert duration > 4.0
        assert duration == 4.0 + max(
            len([p for p in mesh.pairs if p.src == e]) for e in eps
        )

    def test_basic_list_cheaper_than_full_mesh(self):
        eps = endpoints(8, 4)
        mesh = PingList.full_mesh(eps)
        basic = PingList.basic(eps, lambda e: e.slot)
        assert estimate_round_duration(basic) < estimate_round_duration(
            mesh
        )

    def test_probes_per_round(self):
        eps = endpoints(4, 2)
        assert probes_per_round(PingList.full_mesh(eps)) == len(
            PingList.full_mesh(eps)
        )


def basic_list_and_agents(task):
    ping_list = PingList.basic(
        task.endpoints(),
        lambda e: task.containers[e.container].rail_of(e),
    )
    agents = [
        OverlayAgent(container, ping_list, started_at=0.0)
        for container in task.all_containers()
    ]
    return ping_list, agents


class TestRoundExecutor:
    def test_executes_only_active_pairs(
        self, cluster, running_task, rng
    ):
        fabric = DataPlaneFabric(cluster, FaultInjector(cluster), rng)
        ping_list, agents = basic_list_and_agents(running_task)
        seen = []
        run_probe_round(agents, fabric, 0.0, seen.extend)
        assert seen == []
        assert fabric.probes_sent == 0
        for agent in agents:
            agent.register()
        run_probe_round(agents, fabric, 1.0, seen.extend)
        assert len(seen) == len(ping_list)
        assert fabric.probes_sent == len(ping_list)
        assert sum(a.probes_sent for a in agents) == len(ping_list)

    def test_on_result_callback_invoked(self, cluster, running_task, rng):
        """Every result, agent by agent, each agent's in pair order."""
        fabric = DataPlaneFabric(cluster, FaultInjector(cluster), rng)
        ping_list, agents = basic_list_and_agents(running_task)
        for agent in agents:
            agent.register()
        seen = []
        run_probe_round(agents, fabric, 0.0, seen.extend)
        probed = [ProbePair(r.src, r.dst) for r in seen]
        assert probed == [
            pair for agent in agents for pair in agent.my_pairs()
        ]
        # Agents come sorted by container, so that is the global order.
        assert probed == ping_list.active_pairs()
