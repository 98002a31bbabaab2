"""Figure 16: time cost of probing all endpoints.

Paper numbers (512 / 1024 / 2048 RNICs):
    full-mesh  560 / 1123 / 2034 s
    basic       65 /  123 /  241 s
    skeleton   8.2 / 16.9 / 25.1 s  (87-90% below basic)

With agents pacing one probe per second in parallel, the round time is
overhead + the busiest agent's target count; the reproduced shape is the
ordering and the relative reductions at each scale.

Every time printed here is modeled (``ProbeCostModel``), not measured:
no round is timed.  ``bench/run.py`` measures what a simulated round
costs in wall-clock seconds.
"""

from collections import defaultdict

from conftest import print_table, run_once
from repro.core.probing import ProbeCostModel
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RngRegistry
from repro.cluster.orchestrator import Cluster, Orchestrator
from repro.cluster.topology import RailOptimizedTopology
from repro.training.collectives import traffic_edges
from repro.training.parallelism import ParallelismConfig
from repro.training.workload import TrainingWorkload

GPC = 8
SWEEP = [512, 1024, 2048]
COST = ProbeCostModel(per_probe_s=1.0, round_overhead_s=4.0)


def _skeleton_max_degree(containers):
    topology = RailOptimizedTopology(
        num_segments=max(2, containers // 8), hosts_per_segment=8,
        rails_per_host=GPC, num_spines=4,
    )
    cluster = Cluster(topology)
    engine = SimulationEngine()
    orchestrator = Orchestrator(cluster, engine, RngRegistry(16))
    task = orchestrator.submit_task(containers, GPC, instant_startup=True)
    engine.run_until(0)
    dp = containers * GPC // 64
    workload = TrainingWorkload(task, ParallelismConfig(8, 8, dp))
    degree = defaultdict(int)
    for edge in traffic_edges(workload):
        for endpoint in edge:
            degree[endpoint] += 1
    return max(degree.values())


def _round_time(targets_per_agent):
    return COST.round_overhead_s + targets_per_agent * COST.per_probe_s


def test_fig16_probing_round_time(benchmark):
    def experiment():
        rows = []
        for rnics in SWEEP:
            containers = rnics // GPC
            full = _round_time(rnics - GPC)          # all other endpoints
            basic = _round_time(containers - 1)      # same-rail peers
            skeleton = _round_time(_skeleton_max_degree(containers))
            rows.append((rnics, full, basic, skeleton))
        return rows

    rows = run_once(benchmark, experiment)

    print_table(
        "Figure 16: probing round time (seconds)",
        ["RNICs", "full-mesh", "basic", "skeleton", "cut vs basic"],
        [[r, f"{f:.1f}", f"{b:.1f}", f"{s:.1f}",
          f"{100 * (1 - s / b):.1f}%"] for r, f, b, s in rows],
    )

    paper = {512: (560.25, 64.85, 8.23),
             1024: (1123.43, 122.54, 16.91),
             2048: (2034.12, 240.54, 25.09)}
    for rnics, full, basic, skeleton in rows:
        benchmark.extra_info[f"{rnics}"] = (full, basic, skeleton)
        p_full, p_basic, p_skel = paper[rnics]
        # Shape: ordering holds and each tier lands within 2x of the
        # paper's measurement.
        assert skeleton < basic < full
        assert 0.5 < full / p_full < 2.0
        assert 0.5 < basic / p_basic < 2.0
        assert 0.2 < skeleton / p_skel < 2.0
        # Paper: the skeleton list cuts the basic round by ~87-90%.
        assert 1 - skeleton / basic > 0.85
