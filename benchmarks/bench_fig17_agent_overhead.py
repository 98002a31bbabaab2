"""Figure 17: resource consumption of the SkeletonHunter agent.

Paper shape: CPU and memory consumption converge to ~1% of a core and
~35 MB over the container's lifetime.

Every number printed here is modeled (``AgentResourceModel``, whose
steady state is set to the paper's), not measured: the agent is a
simulated sidecar with no process of its own to measure.
"""

from conftest import print_table, run_once
from repro.workloads.scenarios import build_scenario


def test_fig17_agent_resource_convergence(benchmark):
    scenario = build_scenario(
        num_containers=4, gpus_per_container=4, pp=2, seed=17,
    )

    def experiment():
        timeline = []
        for checkpoint in (10, 60, 180, 600, 1800, 3600):
            scenario.engine.run_until(float(checkpoint))
            agent = scenario.hunter.controller.agents_of(
                scenario.task.id
            )[0]
            timeline.append((
                checkpoint,
                agent.cpu_percent(scenario.engine.now),
                agent.memory_mb(scenario.engine.now),
            ))
        return timeline

    timeline = run_once(benchmark, experiment)

    print_table(
        "Figure 17: agent overhead over container lifetime",
        ["t (s)", "CPU %", "memory MB"],
        [[t, f"{cpu:.2f}", f"{mem:.1f}"] for t, cpu, mem in timeline],
    )

    start_cpu = timeline[0][1]
    final_cpu = timeline[-1][1]
    final_mem = timeline[-1][2]
    benchmark.extra_info["final_cpu_percent"] = final_cpu
    benchmark.extra_info["final_memory_mb"] = final_mem

    # Paper: converges to ~1% CPU and ~35 MB.
    assert start_cpu > final_cpu           # startup transient decays
    assert 0.9 < final_cpu < 1.3
    assert 33.0 < final_mem < 36.0
    # Memory only rises; CPU only falls (monotone convergence).
    cpus = [cpu for _, cpu, _ in timeline]
    mems = [mem for _, _, mem in timeline]
    assert cpus == sorted(cpus, reverse=True)
    assert mems == sorted(mems)
