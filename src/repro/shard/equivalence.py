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

from dataclasses import replace
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
    num_containers: int = 16,
    gpus_per_container: int = 4,
    seed: int = 0,
    total_rounds: int = 30,
    num_faults: int = 3,
) -> ShardScenarioSpec:
    """The standard sharded scenario: one task carrying the first
    ``num_faults`` of an RNIC port failure, a switch access-link
    failure and a container crash — enough symptom diversity to
    exercise overlay, tomography, and fast-loss paths without slowing
    CI down.  The gate runs the defaults (64 endpoints; faults over
    rounds 4-18, 8 on, and 11-22 of 30); ``repro run``,
    ``shard-status`` and ``tail --shards`` run it at the CLI's sizes,
    the schedule scaled to the round count."""
    base = ShardScenarioSpec(
        num_containers=num_containers,
        gpus_per_container=gpus_per_container,
        seed=seed,
        total_rounds=total_rounds,
    )
    if num_faults <= 0:
        return base
    probe = build_replica(base)
    endpoints = num_containers * gpus_per_container
    horizon = max(total_rounds, 1)

    def at(fraction: float) -> int:
        return max(1, round(horizon * fraction))

    rnic = probe.rnic_of_rank(3 % endpoints)
    other = probe.rnic_of_rank(8 % endpoints)
    victim = sorted(probe.task.containers)[5 % num_containers]
    schedule = (
        FaultSpec(
            issue=IssueType.RNIC_PORT_DOWN.name, target=rnic,
            start_round=at(0.13), end_round=at(0.6),
        ),
        FaultSpec(
            issue=IssueType.SWITCH_PORT_DOWN.name,
            target=LinkId.between(other, probe.topology.tor_of(other)),
            start_round=at(0.26),
        ),
        FaultSpec(
            issue=IssueType.CONTAINER_CRASH.name, target=victim,
            start_round=at(0.36), end_round=at(0.73),
        ),
    )
    return replace(base, faults=schedule[:num_faults])


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
