"""The gray-failure degradation gate: spraying ECMP vs the clean baseline.

Gray failures (PFC storms, congestion collapse, partial link
degradation) perturb the fabric probabilistically, and spraying ECMP
smears each pair's probes over every equal-cost path — the two together
are the hardest regime the localization pipeline supports.
:class:`GrayGate` is the :class:`~repro.chaos.gate.Gate` that
quantifies how gracefully it degrades: every gray family runs through
four arms —

* ``static`` — pinned per-flow ECMP, the clean baseline;
* ``spray`` — per-packet spraying, the treatment, whose detection
  recall and localization rate must stay within
  :class:`~repro.chaos.gate.Bounds` of the baseline's;
* ``flock`` — :class:`repro.baselines.FlockLocalizer` localizing,
  during the ``spray`` arm's leg, exactly the batches the pipeline's
  localizer received, when it received them, scored by the same
  :class:`~repro.core.evaluation.CampaignScorer`, so the probabilistic
  baseline appears side by side in every report.

The gate also enforces **shard equivalence**: a spraying gray scenario
runs on the sharded plane at several shard counts via
:func:`repro.shard.equivalence.verify_shard_equivalence`, so the
published report could not depend on how the plane was partitioned.

``repro gray`` and ``benchmarks/bench_gray.py`` both run
:class:`GrayGate`; the committed artifact is ``BENCH_gray.json``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from repro.baselines import FlockLocalizer
from repro.chaos.gate import (
    WARM_S, Gate, Reports, build_case, outcome_leg, tap, uplink_target,
)
from repro.cluster.identifiers import LinkId
from repro.core.analyzer import LoadConditionedAdmission
from repro.core.evaluation import CampaignScorer
from repro.equivalence import floored
from repro.network.faults import gray_injection_overrides
from repro.network.issues import GrayIssueType, IssueType
from repro.network.load import LinkLoadModel
from repro.shard.equivalence import verify_shard_equivalence
from repro.shard.spec import FaultSpec, ShardScenarioSpec, build_replica

__all__ = [
    "GRAY_FAMILIES",
    "GrayGate",
    "gray_shard_spec",
]

#: Every load-dependent family the gate sweeps, in catalogue order.
GRAY_FAMILIES: Tuple[GrayIssueType, ...] = tuple(GrayIssueType)


def _case(issue: GrayIssueType, seed: int, ecmp_mode: str):
    """A gray leg's scenario with the full gray pipeline installed,
    and its load model.

    Two hosts per segment (unlike the chaos gate's four) so monitored
    traffic crosses the spine layer — spraying is only observable on
    multi-path segments, and a single-ToR scenario would make the
    static and spraying legs identical by construction.
    """
    scenario = build_case(
        issue, seed, hosts_per_segment=2, ecmp_mode=ecmp_mode
    )
    load_model = LinkLoadModel.from_workload(
        scenario.workload, scenario.cluster
    )
    scenario.hunter.analyzer.load_filter = LoadConditionedAdmission(
        load_model, scenario.fabric
    )
    return scenario, load_model


def _run_leg(issue: GrayIssueType, seed: int, scenario, load_model):
    """Warm up, apply the skeleton and run the fault on the gray
    target; returns the scenario and the fault's outcome."""
    scenario.run_for(WARM_S)
    scenario.apply_skeleton()
    target = uplink_target(scenario, load_model)
    return scenario, scenario.run_fault(
        issue, target,
        **gray_injection_overrides(issue, target, seed, load_model),
    )


def _tap_flock(scenario) -> Reports:
    """Have Flock localize every batch the hunter's localizer gets
    (:func:`~repro.chaos.gate.tap`); returns where its reports land."""
    flock = FlockLocalizer(scenario.cluster, scenario.fabric)
    return tap(scenario.hunter.localizer, {"flock": flock})["flock"]


def _score_flock(scenario, fault, reports: Reports):
    """Score Flock's reports with the scorer the pipeline's face."""
    scorer = CampaignScorer(scenario.cluster, scenario.fabric)
    return scorer.outcome_of(
        fault, scenario.hunter.events, reports,
        scenario.hunter.monitored_pairs(),
    )


def gray_shard_spec(
    seed: int = 0,
    num_containers: int = 8,
    total_rounds: int = 24,
) -> ShardScenarioSpec:
    """A spraying shard-plane scenario carrying every gray family.

    Each family rides its own uplink of one ToR, with its severity
    drawn through :func:`gray_injection_overrides`; two RNIC port
    failures, one early and one late, make the plane localize at three
    rounds, not one (a gray fault opens its events only when its
    detection window closes).  The whole spec is pure data, so every
    replica derives the identical faults.
    """
    base = ShardScenarioSpec(
        num_containers=num_containers,
        gpus_per_container=4,
        seed=seed,
        total_rounds=total_rounds,
        ecmp_mode="spray",
    )
    probe = build_replica(base)

    def at(fraction: float) -> int:
        return max(1, round(total_rounds * fraction))

    tor = probe.topology.tor_of(probe.rnic_of_rank(5))
    faults = [
        FaultSpec(
            issue=issue.name, target=link,
            start_round=at(1 / 6), end_round=at(0.8),
            overrides=tuple(sorted(
                gray_injection_overrides(issue, link, seed).items()
            )),
        )
        for issue, spine in zip(GRAY_FAMILIES, probe.topology.spines[1:])
        for link in (LinkId.between(tor, spine),)
    ]
    faults += [
        FaultSpec(
            issue=IssueType.RNIC_PORT_DOWN.name,
            target=probe.rnic_of_rank(rank),
            start_round=at(start), end_round=at(end),
        )
        for rank, start, end in ((10, 0.25, 0.5), (22, 0.8, 1.0))
    ]
    return dataclasses.replace(base, faults=tuple(faults))


class GrayGate(Gate):
    """Static-ECMP baseline vs spraying, per gray family and seed.

    ``run`` raises :class:`~repro.equivalence.EquivalenceError` if the
    shard plane ever disagrees with the single-process run.
    """

    title = (
        "gray-failure degradation gate: static ECMP baseline vs spraying"
    )
    baseline = "static"
    treatment = "spray"

    def __init__(self) -> None:
        self.arms = {
            "static": self._static,
            "spray": self._spray,
            "flock": self._flock,
        }

    @staticmethod
    def _leg(scenario, outcome) -> Dict[str, object]:
        return outcome_leg(
            outcome, "localized_component", "detection_delay_s",
            events=len(scenario.hunter.events),
        )

    def _static(self, issue, seed: int, live) -> Dict[str, object]:
        return self._leg(*_run_leg(
            issue, seed, *_case(issue, seed, "static")
        ))

    def _spray(self, issue, seed: int, live) -> Dict[str, object]:
        scenario, load_model = _case(issue, seed, "spray")
        live["flock"] = _tap_flock(scenario)
        live["spray"] = _run_leg(issue, seed, scenario, load_model)
        return self._leg(*live["spray"])

    def _flock(self, issue, seed: int, live) -> Dict[str, object]:
        scenario, outcome = live["spray"]
        return outcome_leg(
            _score_flock(scenario, outcome.fault, live["flock"]),
            "localized_component",
        )

    def cases(self, seed: int) -> List[Tuple[object, int]]:
        return [
            (issue, s) for issue in GRAY_FAMILIES for s in (seed, seed + 1)
        ]

    def config(self, seed: int) -> Dict[str, object]:
        return {
            "seeds": [seed, seed + 1],
            "families": [issue.name for issue in GRAY_FAMILIES],
        }

    def extras(
        self, rows: List[Dict[str, object]], seed: int
    ) -> Dict[str, object]:
        shard = verify_shard_equivalence(
            spec=gray_shard_spec(seed=seed),
            shard_counts=(2, 4),
            backends=("inproc",),
            with_failover=False,
        )
        floored("gray shard plane", {
            "events": shard["baseline_events"],
            "verdicts": shard["baseline_verdicts"],
        })
        return {"shard_equivalence": shard}

    def footer(self, summary: Dict[str, object]) -> List[str]:
        shard = summary["shard_equivalence"]
        return [
            f"flock baseline: {summary['flock_detected']} detected, "
            f"{summary['flock_localized']} localized",
            f"shard plane: {len(shard['compared'])} configuration(s) "
            f"bit-identical to the single-shard spraying baseline "
            f"({shard['baseline_events']} events, "
            f"{shard['baseline_verdicts']} verdicts)",
        ]
