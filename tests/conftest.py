"""Shared fixtures: small clusters and monitored scenarios."""

import numpy as np
import pytest

from repro.cluster.orchestrator import Cluster, Orchestrator
from repro.cluster.topology import RailOptimizedTopology
from repro.network.draws import pair_key
from repro.network.packet import endpoints_of
from repro.sim.engine import SimulationEngine
from repro.sim.rng import RngRegistry
from repro.workloads.scenarios import build_scenario


def draw_keys(pairs):
    """The draw-key column (``uint64``) of ``pairs`` — ``(src, dst)``
    tuples or probe pairs — as a fabric batch carries it."""
    return np.array(
        [pair_key(*endpoints_of(pair)) for pair in pairs], dtype=np.uint64
    )


@pytest.fixture
def topology():
    """A compact 2-segment, 4-hosts-per-segment, 4-rail fabric."""
    return RailOptimizedTopology(
        num_segments=2, hosts_per_segment=4, rails_per_host=4, num_spines=2
    )


@pytest.fixture
def cluster(topology):
    """A cluster over the compact fabric."""
    return Cluster(topology)


@pytest.fixture
def engine():
    """A fresh simulation engine."""
    return SimulationEngine()


@pytest.fixture
def rng():
    """A seeded RNG registry."""
    return RngRegistry(1234)


@pytest.fixture
def orchestrator(cluster, engine, rng):
    """An orchestrator over the compact cluster."""
    return Orchestrator(cluster, engine, rng)


@pytest.fixture
def running_task(orchestrator, engine):
    """A 4-container x 4-GPU task with every container RUNNING."""
    task = orchestrator.submit_task(4, 4, instant_startup=True)
    engine.run_until(engine.now)
    return task


@pytest.fixture
def small_scenario():
    """A fully monitored 4x4 scenario (56 basic probe pairs)."""
    return build_scenario(
        num_containers=4, gpus_per_container=4, pp=2, seed=7,
        hosts_per_segment=4,
    )
