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
* ``spray_naive`` — spraying again with distribution-aware tomography
  disabled (naive single-sample voting); the gate requires the
  distribution-aware localizer to do at least as well;
* ``flock`` — the ``spray`` arm's events re-localized by
  :class:`repro.baselines.FlockLocalizer` and scored by the same
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

from typing import Dict, List, Tuple

from repro.baselines import FlockLocalizer
from repro.chaos.gate import WARM_S, Gate, build_case, outcome_leg
from repro.cluster.identifiers import LinkId
from repro.core.analyzer import LoadConditionedAdmission
from repro.core.evaluation import CampaignScorer
from repro.core.localization import healthy_pairs_for
from repro.network.faults import gray_injection_overrides
from repro.network.issues import GrayIssueType
from repro.network.load import LinkLoadModel
from repro.shard.equivalence import verify_shard_equivalence
from repro.shard.spec import FaultSpec, ShardScenarioSpec, build_replica

__all__ = [
    "GRAY_FAMILIES",
    "GrayGate",
    "gray_fault_target",
    "gray_shard_spec",
]

#: Every load-dependent family the gate sweeps, in catalogue order.
GRAY_FAMILIES: Tuple[GrayIssueType, ...] = tuple(GrayIssueType)


def gray_fault_target(scenario, load_model: LinkLoadModel):
    """The most-probed switch-to-switch link, ties broken by load.

    Gray families live on the fabric's multiplexed segment: access
    links carry exactly one path, so faulting one would never separate
    spraying from static ECMP (every probe of the pair crosses it
    either way).  Among the ToR–spine uplinks, the one carrying the
    most *currently probed* pairs' static picks (the agents' live
    ping lists, not the analyzer's history) gives the static-ECMP
    baseline its best tomography evidence — the spraying leg then has
    to match that baseline with every pair's probes smeared across the
    whole candidate set, which is exactly the degradation this gate
    measures.  ``traceroute`` reports the static hash pick regardless
    of the fabric's live mode, so both legs derive the same target.
    """
    probed = set()
    controller = scenario.hunter.controller
    for task_id in controller.monitored_tasks():
        for agent in controller.agents_of(task_id):
            probed.update(agent.ping_list.pairs)
    crossings: Dict[LinkId, int] = {}
    for pair in sorted(probed):
        path = scenario.fabric.traceroute(pair.src, pair.dst)
        if path is None:
            continue
        for link in path.links:
            if "/rnic-" not in link.a and "/rnic-" not in link.b:
                crossings[link] = crossings.get(link, 0) + 1
    if not crossings:
        raise ValueError(
            "no monitored pair crosses a switch-to-switch link; the "
            "gray gate needs a multi-segment scenario"
        )
    return min(
        crossings,
        key=lambda link: (
            -crossings[link], -load_model.utilization(link), str(link)
        ),
    )


def _run_leg(
    issue: GrayIssueType,
    seed: int,
    ecmp_mode: str,
    distribution_aware: bool = True,
):
    """One campaign leg with the full gray pipeline installed; returns
    the live scenario and the fault's outcome.

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
    scenario.hunter.localizer.distribution_aware = distribution_aware
    scenario.run_for(WARM_S)
    scenario.apply_skeleton()
    target = gray_fault_target(scenario, load_model)
    return scenario, scenario.run_fault(
        issue, target,
        **gray_injection_overrides(issue, target, seed, load_model),
    )


def _score_flock(scenario, fault):
    """Re-localize a finished leg's events with the Flock baseline.

    Rebuilds the hunter's per-round localization batches (every event
    open at each report time, with the complementary healthy set) so
    Flock consumes exactly the evidence the pipeline did, then scores
    its reports with the same campaign scorer.
    """
    flock = FlockLocalizer(scenario.cluster, scenario.fabric)
    monitored = scenario.hunter.monitored_pairs()
    reports = []
    seen = set()
    for when, _ in scenario.hunter.reports:
        batch = [
            event for event in scenario.hunter.events
            if event.first_detected_at <= when
        ]
        fresh = [event for event in batch if event.key not in seen]
        if not fresh:
            continue
        seen.update(event.key for event in fresh)
        healthy = healthy_pairs_for(batch, monitored)
        reports.append(
            (when, flock.localize(batch, healthy, now=when))
        )
    scorer = CampaignScorer(scenario.cluster, scenario.fabric)
    return scorer.outcome_of(
        fault, scenario.hunter.events, reports, monitored
    )


def gray_shard_spec(
    seed: int = 0,
    num_containers: int = 8,
    total_rounds: int = 24,
) -> ShardScenarioSpec:
    """A spraying shard-plane scenario carrying one gray fault.

    The fault rides a ToR uplink of a monitored endpoint, with its
    severity drawn through :func:`gray_injection_overrides` — the whole
    spec is pure data, so every replica derives the identical fault.
    """
    base = ShardScenarioSpec(
        num_containers=num_containers,
        gpus_per_container=4,
        seed=seed,
        total_rounds=total_rounds,
        ecmp_mode="spray",
    )
    probe = build_replica(base)
    rnic = probe.rnic_of_rank(5)
    tor = probe.topology.tor_of(rnic)
    link = LinkId.between(tor, probe.topology.spines[1])
    overrides = gray_injection_overrides(
        GrayIssueType.PARTIAL_LINK_DEGRADATION, link, seed
    )
    fault = FaultSpec(
        issue=GrayIssueType.PARTIAL_LINK_DEGRADATION.name,
        target=link,
        start_round=max(1, total_rounds // 5),
        end_round=max(2, (total_rounds * 4) // 5),
        overrides=tuple(sorted(overrides.items())),
    )
    return ShardScenarioSpec(
        num_containers=base.num_containers,
        gpus_per_container=base.gpus_per_container,
        seed=seed,
        total_rounds=total_rounds,
        ecmp_mode="spray",
        faults=(fault,),
    )


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
            "spray_naive": self._spray_naive,
            "flock": self._flock,
        }

    @staticmethod
    def _leg(scenario, outcome) -> Dict[str, object]:
        return outcome_leg(
            outcome, "localized_component", "detection_delay_s",
            events=len(scenario.hunter.events),
        )

    def _static(self, issue, seed: int, live) -> Dict[str, object]:
        return self._leg(*_run_leg(issue, seed, "static"))

    def _spray(self, issue, seed: int, live) -> Dict[str, object]:
        live["spray"] = _run_leg(issue, seed, "spray")
        return self._leg(*live["spray"])

    def _spray_naive(self, issue, seed: int, live) -> Dict[str, object]:
        return self._leg(
            *_run_leg(issue, seed, "spray", distribution_aware=False)
        )

    def _flock(self, issue, seed: int, live) -> Dict[str, object]:
        scenario, outcome = live["spray"]
        return outcome_leg(
            _score_flock(scenario, outcome.fault), "localized_component"
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
        def localized(arm: str) -> int:
            return sum(1 for row in rows if row[arm]["localized"])

        return {
            "distribution_aware_localized": localized("spray"),
            "naive_localized": localized("spray_naive"),
            "shard_equivalence": verify_shard_equivalence(
                spec=gray_shard_spec(seed=seed),
                shard_counts=(2, 4),
                backends=("inproc",),
                with_failover=False,
            ),
        }

    def check(self, summary: Dict[str, object]) -> List[str]:
        """Distribution-aware voting is the point of the spraying
        pipeline: it must never do worse than naive voting."""
        if (
            summary["distribution_aware_localized"]
            >= summary["naive_localized"]
        ):
            return []
        return [
            "distribution-aware voting localized "
            f"{summary['distribution_aware_localized']} spraying "
            "cases, fewer than naive voting's "
            f"{summary['naive_localized']}"
        ]

    def footer(self, summary: Dict[str, object]) -> List[str]:
        shard = summary["shard_equivalence"]
        return [
            f"voting under spray: distribution-aware "
            f"{summary['distribution_aware_localized']} vs naive "
            f"{summary['naive_localized']} localized",
            f"flock baseline: {summary['flock_detected']} detected, "
            f"{summary['flock_localized']} localized",
            f"shard plane: {len(shard['compared'])} configuration(s) "
            f"bit-identical to the single-shard spraying baseline "
            f"({shard['baseline_events']} events)",
        ]
