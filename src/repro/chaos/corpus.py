"""The localization corpus: every catalogue fault, scored three ways.

One :class:`~repro.chaos.gate.Gate` over the one campaign leg
(:meth:`MonitoredScenario.run_fault`), swept over

* every catalogue issue at its standard target, and every link-kind
  issue (``target_kind == "link"``) twice more: on the most-probed
  ToR–spine uplink (:func:`~repro.chaos.gate.uplink_target`), the
  multiplexed segment where the underlay rule has to choose between
  sibling links, and on the least-probed link
  (:func:`~repro.chaos.gate.sparse_target`), a single witness where the
  ping list allows;
* static ECMP and per-packet spraying, each on the basic and on the
  skeleton ping list;
* :data:`SEEDS` scenario seeds and :data:`WORLDS` draw worlds — world
  ``w`` re-keys only the fabric's
  :class:`~repro.network.draws.PairwiseDrawSource`, so the same cluster,
  placement and fault see other probe noise;

on a 256-endpoint task over four segments.  Every localizer arm scores
the *same* run: the pipeline's own localizer is live, and each
comparator localizes exactly the batches it was handed, with the same
healthy pairs and time (:func:`~repro.chaos.gate.tap`).  Each arm is
scored as the pipeline is (:func:`~repro.core.evaluation.verdicts_of`):
recall (a culprit named in any report of the fault window), top-1 (the
first diagnosis of the window's first report) and precision (culprit
diagnoses over all diagnoses in the window), each with a Wilson 95%
interval, per regime and per issue.

The committed artifact is ``BENCH_localization.json``; a fixed slice of
it (:data:`SLICE`) is a ``repro equivalence`` row.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines import FlockLocalizer
from repro.chaos.gate import (
    FULL_ISSUES, WARM_S, Gate, Reports, outcome_leg, sparse_target, sweep,
    tap, uplink_target,
)
from repro.core.evaluation import fault_affects_pair, verdicts_of
from repro.network.draws import PairwiseDrawSource
from repro.network.issues import spec_of
from repro.workloads.scenarios import MonitoredScenario, build_scenario

__all__ = [
    "LocalizationCorpus",
    "SLICE",
    "build_world",
    "case_key",
    "corpus_leg",
    "digest",
    "holds",
    "slice_rows",
    "wilson",
    "write",
]

#: The corpus task: 32 containers x 8 GPUs = 256 endpoints, eight hosts
#: a segment, so four segments under four spines.
NUM_CONTAINERS = 32
GPUS_PER_CONTAINER = 8
HOSTS_PER_SEGMENT = 8
SEEDS = 10
WORLDS = 2
#: World ``w`` keys the fabric's draws by the registry seed plus
#: ``w * WORLD_STRIDE``; world 0 is the world every other leg sees.
WORLD_STRIDE = 1_000_003
ECMP_MODES = ("static", "spray")
PING_LISTS = ("basic", "skeleton")
#: z of a two-sided 95% interval.
Z95 = 1.959963984540054

#: The legs ``repro equivalence`` reruns, as ``(issue, seed, target,
#: ecmp, ping list, world)``: the single-witness CRC link of §7.1 (which
#: no rule localizes), and in each ECMP mode the one leg in which RNIC
#: validation (Step 3) diagnoses, where the pipeline and Flock disagree
#: on top-1.  Their rows must equal ``BENCH_localization.json``'s.
SLICE: Tuple[Tuple[str, int, str, str, str, int], ...] = (
    ("CRC_ERROR", 0, "sparse", "static", "skeleton", 0),
    ("REPETITIVE_FLOW_OFFLOADING", 7, "standard", "static", "basic", 0),
    ("REPETITIVE_FLOW_OFFLOADING", 7, "standard", "spray", "basic", 0),
)

#: ``make(scenario) -> localizer``: a comparator arm, handed every batch
#: the pipeline's localizer is.
Comparator = Callable[[MonitoredScenario], object]


#: A link-kind issue's further targets, beside its standard one.
LINK_TARGETS = {"uplink": uplink_target, "sparse": sparse_target}


def targets_of(issue) -> Tuple[str, ...]:
    """The targets an issue is swept at, from its catalogue kind."""
    if spec_of(issue).target_kind == "link":
        return ("standard", *LINK_TARGETS)
    return ("standard",)


def _witnesses(scenario: MonitoredScenario, fault) -> Tuple[int, bool]:
    """How many pairs of the live ping list the fault can perturb, and
    whether one of them has both ends on one host."""
    overlay = scenario.cluster.overlay
    controller = scenario.hunter.controller
    count, same_host = 0, False
    for pair in (
        pair for task in controller.monitored_tasks()
        for pair in controller.ping_list_of(task).active_pairs()
    ):
        if fault_affects_pair(fault, pair, scenario.cluster,
                              scenario.fabric):
            count += 1
            same_host = same_host or (
                overlay.record_of(pair.src).host
                == overlay.record_of(pair.dst).host
            )
    return count, same_host


def _count_rnic_batches(localizer) -> List[int]:
    """Count the batches in which the localizer's RNIC-validation step
    (Step 3) receives events; the count lands in the returned list."""
    count = [0]
    validate = getattr(localizer, "_validate_rnics", None)
    if validate is None:
        return count

    def counted(events, report):
        count[0] += bool(events)
        return validate(events, report)

    localizer._validate_rnics = counted
    return count


def _rnic_diagnoses(reports: Reports) -> int:
    return sum(
        d.layer == "rnic" for _, report in reports for d in report.diagnoses
    )


def build_world(
    issue, seed: int, ecmp: str, world: int
) -> MonitoredScenario:
    """The corpus scenario of one case, built but not run: its own
    scenario seed per (issue, seed), the same in every ECMP mode and
    world; world ``w`` re-keys only the fabric's probe draws."""
    scenario = build_scenario(
        num_containers=NUM_CONTAINERS, gpus_per_container=GPUS_PER_CONTAINER,
        hosts_per_segment=HOSTS_PER_SEGMENT, pp=2,
        seed=seed * 100 + issue.value, ecmp_mode=ecmp,
    )
    if world:
        scenario.fabric._draws = PairwiseDrawSource(
            scenario.rng.seed + world * WORLD_STRIDE
        )
    return scenario


def corpus_leg(
    issue, seed: int, ecmp: str, ping_list: str, world: int, target: str,
    comparators: Dict[str, Comparator],
) -> Dict[str, Dict[str, Any]]:
    """One corpus leg: build, warm up, (prune,) run the fault, and
    score the pipeline and every comparator on that one run.

    Returns one leg per arm, ``"pipeline"`` first."""
    scenario = build_world(issue, seed, ecmp, world)
    localizers = {"pipeline": scenario.hunter.localizer}
    localizers.update(
        (name, make(scenario)) for name, make in comparators.items()
    )
    batches = {arm: _count_rnic_batches(localizer)
               for arm, localizer in localizers.items()}
    reports = {
        "pipeline": scenario.hunter.reports,
        **tap(localizers["pipeline"],
              {arm: localizers[arm] for arm in comparators}),
    }
    scenario.run_for(WARM_S)
    if ping_list == "skeleton":
        scenario.apply_skeleton()
    pick = LINK_TARGETS.get(target)
    outcome = scenario.run_fault(
        issue, None if pick is None else pick(scenario)
    )
    witnesses, same_host = _witnesses(scenario, outcome.fault)
    legs = {}
    for arm, arm_reports in reports.items():
        verdicts = verdicts_of(outcome.fault, arm_reports)
        legs[arm] = {
            "detected": outcome.detected,
            **{key: verdicts[key] for key in (
                "localized", "top1", "culprit_diagnoses", "diagnoses",
            )},
            "rnic_batches": batches[arm][0],
            "rnic_diagnoses": _rnic_diagnoses(arm_reports),
        }
    legs["pipeline"].update(outcome_leg(
        outcome, "detection_delay_s",
        events=len(scenario.hunter.events),
        witnesses=witnesses, same_host=same_host,
    ))
    return legs


def wilson(k: int, n: int) -> List[float]:
    """The Wilson score 95% interval of ``k`` successes in ``n``."""
    if n == 0:
        return [0.0, 1.0]
    p = k / n
    denominator = 1.0 + Z95 * Z95 / n
    centre = (p + Z95 * Z95 / (2 * n)) / denominator
    half = Z95 * math.sqrt(
        p * (1 - p) / n + Z95 * Z95 / (4 * n * n)
    ) / denominator
    return [round(max(0.0, centre - half), 4),
            round(min(1.0, centre + half), 4)]


def _stats(legs: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """One arm's scores over ``legs``, each count with its interval."""
    n = len(legs)
    recall = sum(bool(leg["localized"]) for leg in legs)
    top1 = sum(bool(leg["top1"]) for leg in legs)
    culprit = sum(int(leg["culprit_diagnoses"]) for leg in legs)
    diagnoses = sum(int(leg["diagnoses"]) for leg in legs)
    return {
        "legs": n,
        "recall": recall, "recall_ci": wilson(recall, n),
        "top1": top1, "top1_ci": wilson(top1, n),
        "precision": [culprit, diagnoses],
        "precision_ci": wilson(culprit, diagnoses),
    }


def holds(arm: Dict[str, Any], base: Dict[str, Any]) -> bool:
    """Whether ``arm`` holds a regime against ``base``: its recall and
    top-1 intervals overlap ``base``'s or lie above them, and its
    precision is not below ``base``'s interval."""
    return (
        arm["recall_ci"][1] >= base["recall_ci"][0]
        and arm["top1_ci"][1] >= base["top1_ci"][0]
        and _rate(arm["precision"]) >= base["precision_ci"][0]
    )


def _rate(counts: Sequence[int]) -> float:
    hits, total = counts
    return hits / total if total else 0.0


def _grouped(
    rows: Sequence[Dict[str, Any]], key: Callable[[Dict[str, Any]], str]
) -> Dict[str, List[Dict[str, Any]]]:
    """``rows`` by ``key``, keys sorted."""
    groups: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for row in rows:
        groups[key(row)].append(row)
    return dict(sorted(groups.items()))


def _delay(legs: Sequence[Dict[str, Any]]) -> Optional[float]:
    delays = [leg["detection_delay_s"] for leg in legs
              if leg["detection_delay_s"] is not None]
    return round(sum(delays) / len(delays), 3) if delays else None


class LocalizationCorpus(Gate):
    """The pipeline's localizer against its comparators, leg by leg.

    The engine's bound reads the pipeline as the treatment: it must
    keep recall and localization against the comparator it replaced.
    """

    title = "localization corpus: the pipeline vs its comparators"
    baseline = "flock"
    treatment = "pipeline"
    #: The comparator arms, each tapping the pipeline's run.
    comparators: Dict[str, Comparator] = {
        "flock": lambda s: FlockLocalizer(s.cluster, s.fabric),
    }

    def __init__(self) -> None:
        self.arms = {"pipeline": self._leg}
        self.arms.update(
            (name, self._rescored(name)) for name in self.comparators
        )

    def _leg(self, issue, seed: int, live) -> Dict[str, Any]:
        live["legs"] = corpus_leg(
            issue, seed, live["ecmp"], live["list"], live["world"],
            live["target"], self.comparators,
        )
        return live["legs"]["pipeline"]

    @staticmethod
    def _rescored(name: str):
        return lambda issue, seed, live: live["legs"][name]

    def cases(self, seed: int) -> List[Tuple[Any, ...]]:
        return [
            (issue, s, {"target": target, "ecmp": ecmp, "list": ping_list,
                        "world": world})
            for issue in FULL_ISSUES
            for target in targets_of(issue)
            for ecmp in ECMP_MODES
            for ping_list in PING_LISTS
            for s in range(seed, seed + SEEDS)
            for world in range(WORLDS)
        ]

    def config(self, seed: int) -> Dict[str, Any]:
        return {
            "endpoints": NUM_CONTAINERS * GPUS_PER_CONTAINER,
            "segments": NUM_CONTAINERS // HOSTS_PER_SEGMENT,
            "seeds": [seed, seed + SEEDS - 1],
            "worlds": WORLDS, "world_stride": WORLD_STRIDE,
            "ecmp_modes": list(ECMP_MODES), "ping_lists": list(PING_LISTS),
        }

    def extras(
        self, rows: List[Dict[str, Any]], seed: int
    ) -> Dict[str, Any]:
        def scored(legs):
            stats = {arm: _stats([row[arm] for row in legs])
                     for arm in self.arms}
            stats["detection_delay_s"] = _delay(
                [row["pipeline"] for row in legs]
            )
            return stats

        def cell(row):
            return f"{row['ecmp']}/{row['list']}"

        families = _grouped(
            rows, lambda row: f"{row['issue']}@{row['target']}"
        )
        return {
            "regimes": {name: scored(legs) for name, legs in
                        _grouped(rows, lambda row: row["ecmp"]).items()},
            "cells": {name: scored(legs)
                      for name, legs in _grouped(rows, cell).items()},
            "families": {
                family: {name: scored(cell_legs) for name, cell_legs in
                         _grouped(legs, cell).items()}
                for family, legs in families.items()
            },
            "rnic_validation": {
                arm: {key: sum(row[arm][f"rnic_{key}"] for row in rows)
                      for key in ("batches", "diagnoses")}
                for arm in self.arms
            },
        }

    def check(self, summary: Dict[str, Any]) -> List[str]:
        """The pipeline must keep holding every regime against each
        comparator (:func:`holds`, the rule that chose it)."""
        return [
            f"{arm} beats the pipeline under {regime} ECMP"
            for regime, stats in summary["regimes"].items()
            for arm in self.comparators
            if not holds(stats["pipeline"], stats[arm])
        ]


def write(report: Dict[str, Any], out: str) -> None:
    """Write a corpus report as JSON with one row a line, so thousands
    of legs stay reviewable as a diff (``BENCH_localization.json``)."""
    rows = ",\n".join(
        "  " + json.dumps(row, sort_keys=True) for row in report["rows"]
    )
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(
            '{"config": ' + json.dumps(report["config"], sort_keys=True)
            + ',\n "rows": [\n' + rows + "\n ],\n \"summary\": "
            + json.dumps(report["summary"], indent=1, sort_keys=True)
            + "}\n"
        )


def case_key(issue, seed: int, axes: Dict[str, Any]) -> Tuple:
    """A case as :data:`SLICE` names it."""
    return (issue.name, seed, axes["target"], axes["ecmp"], axes["list"],
            axes["world"])


def slice_rows() -> List[Dict[str, Any]]:
    """The corpus rows of :data:`SLICE`, measured now, in corpus order."""
    corpus = LocalizationCorpus()
    return list(sweep(corpus.arms, [
        case for case in corpus.cases(0) if case_key(*case) in SLICE
    ]))


def digest(rows: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Rows as the ``localization`` contract row reads them: per arm,
    how many legs localized and named the culprit first, the report's
    violations, and the sha256 of the rows."""
    corpus = LocalizationCorpus()
    return {
        "legs": len(rows),
        **{f"{arm} {key}": sum(bool(row[arm][key]) for row in rows)
           for arm in corpus.arms for key in ("localized", "top1")},
        "violations": corpus.report(list(rows))["summary"]["violations"],
        "sha256": hashlib.sha256(
            json.dumps(rows, sort_keys=True).encode()
        ).hexdigest(),
    }
