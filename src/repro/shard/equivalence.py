"""The shard-equivalence gate.

The sharded plane's non-negotiable invariant: for a fixed run seed, the
set of opened failure events and the localization verdicts are
identical for every shard count, every backend, and any failover
history.  This module runs the same spec under several configurations
and hands each run's streams to :func:`repro.equivalence.compare`,
which raises :class:`~repro.equivalence.EquivalenceError` on the first
divergence.  Tests and ``repro equivalence`` (the CI job) call
:func:`verify_shard_equivalence`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cluster.identifiers import LinkId
from repro.equivalence import EquivalenceError, compare
from repro.network.issues import IssueType
from repro.shard.backend import backend_named
from repro.shard.coordinator import ShardCoordinator, ShardRunResult
from repro.shard.spec import FaultSpec, ShardScenarioSpec, build_replica

__all__ = [
    "default_equivalence_spec",
    "run_plane",
    "verify_shard_equivalence",
]


def run_plane(
    spec: ShardScenarioSpec,
    num_shards: int,
    backend: str = "inproc",
    chunk_rounds: int = 5,
    kill_schedule: Optional[Dict[int, int]] = None,
    recorder=None,
    bus=None,
) -> ShardRunResult:
    """Run the spec'd scenario on the sharded plane, start to finish."""
    coordinator = ShardCoordinator(
        spec,
        num_shards,
        backend=backend_named(backend),
        chunk_rounds=chunk_rounds,
        recorder=recorder,
        kill_schedule=kill_schedule,
        bus=bus,
    )
    return coordinator.run()


def default_equivalence_spec(
    seed: int = 0, total_rounds: int = 30
) -> ShardScenarioSpec:
    """The smoke scenario the gate runs: a 64-endpoint task with one
    hard fault on a switch link, one RNIC port failure, and a container
    crash — enough symptom diversity to exercise overlay, tomography,
    and fast-loss paths without slowing CI down."""
    base = ShardScenarioSpec(
        num_containers=16,
        gpus_per_container=4,
        seed=seed,
        total_rounds=total_rounds,
    )
    probe = build_replica(base)
    rnic = probe.rnic_of_rank(3)
    other_rnic = probe.rnic_of_rank(8)
    tor_link = LinkId.between(
        other_rnic, probe.topology.tor_of(other_rnic)
    )
    victim = sorted(probe.task.containers)[5]
    faults = (
        FaultSpec(
            issue=IssueType.RNIC_PORT_DOWN.name,
            target=rnic,
            start_round=4,
            end_round=18,
        ),
        FaultSpec(
            issue=IssueType.SWITCH_PORT_DOWN.name,
            target=tor_link,
            start_round=8,
        ),
        FaultSpec(
            issue=IssueType.CONTAINER_CRASH.name,
            target=victim,
            start_round=11,
            end_round=22,
        ),
    )
    return ShardScenarioSpec(
        num_containers=base.num_containers,
        gpus_per_container=base.gpus_per_container,
        seed=seed,
        total_rounds=total_rounds,
        faults=faults,
    )


def verify_shard_equivalence(
    spec: Optional[ShardScenarioSpec] = None,
    shard_counts: Tuple[int, ...] = (2, 4),
    backends: Tuple[str, ...] = ("inproc",),
    with_failover: bool = True,
    chunk_rounds: int = 5,
) -> Dict[str, object]:
    """Run the gate; raises :class:`EquivalenceError` on any diff.

    Compares a ``--shards 1`` in-process baseline against every
    (shard count, backend) combination, plus — with ``with_failover``
    — a 4-shard run where one shard is killed mid-run and its pairs
    fail over.  Returns a summary of what was compared.
    """
    spec = spec if spec is not None else default_equivalence_spec()
    baseline = run_plane(
        spec, 1, "inproc", chunk_rounds=chunk_rounds
    ).comparable()
    compared: List[str] = []
    for backend in backends:
        for num_shards in shard_counts:
            label = f"shards={num_shards} backend={backend}"
            candidate = run_plane(
                spec, num_shards, backend, chunk_rounds=chunk_rounds
            )
            compare(label, baseline, candidate.comparable())
            compared.append(label)
    if with_failover:
        for backend in backends:
            label = f"shards=4 backend={backend} kill=1@chunk2"
            candidate = run_plane(
                spec, 4, backend,
                chunk_rounds=chunk_rounds,
                kill_schedule={1: 2},
            )
            if not candidate.reassignments:
                raise EquivalenceError(
                    f"{label}: the scripted kill produced no "
                    f"reassignments — failover never ran"
                )
            compare(label, baseline, candidate.comparable())
            compared.append(label)
    return {
        "baseline_events": len(baseline["events"]),
        "baseline_verdicts": len(baseline["verdicts"]),
        "compared": compared,
    }
