"""The degradation-gate engine, and the monitor-chaos gate built on it.

A degradation gate answers one question: how much detection and
localization does the pipeline keep when its world gets harder?  The
:class:`Gate` engine asks it the same way every time — each case (an
issue and a seed) runs through the gate's named *arms*, each arm
wiring the campaign leg's world differently (or re-scoring an earlier
arm's run), and the *treatment* arm's detected / localized counts must
stay within :class:`Bounds` of the *baseline* arm's.  One report
builder, one JSON dump, one terminal table.

:class:`ChaosGate` (``repro chaos``, ``BENCH_chaos.json``) is the
monitor-plane instance: a perfect monitor against the *standard chaos
weather* — telemetry loss + probe-report loss at a configurable rate,
plus one sidecar-agent crash window.  ``repro.chaos.gray`` holds the
spraying-ECMP instance, and ``repro campaign`` prints the
:func:`campaign_leg` of every catalogued issue on the basic ping list.

Everything is seeded: the campaign scenarios, the chaos schedule (fault
ids are pinned so repeated runs in one process draw identical fates),
and the retry jitter — so a gate's numbers are reproducible bit for
bit.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.chaos.faults import MonitorFaultInjector, MonitorIssue
from repro.core.evaluation import FaultOutcome
from repro.network.issues import all_issue_types
from repro.workloads.scenarios import MonitoredScenario, build_scenario

__all__ = [
    "Bounds",
    "ChaosGate",
    "FULL_ISSUES",
    "Gate",
    "build_case",
    "campaign",
    "campaign_leg",
    "leg_mark",
    "outcome_leg",
    "standard_chaos",
    "sweep",
]

#: The gate sweeps every catalogued issue — Table 1 plus the gray
#: families — exactly like ``repro campaign``; adding a family to the
#: catalog extends the sweep with no edits here.
FULL_ISSUES: Tuple[object, ...] = all_issue_types()

#: Fault-free warm-up every campaign leg runs before its fault.
WARM_S = 200.0

#: The sidecar agent crashed during the chaos run (container id string;
#: chosen away from the standard fault targets so the crash degrades
#: coverage rather than blinding the campaign's victim pairs).
CRASH_SCOPE = "task-0/node-3"
#: The crash window relative to the campaign timeline: the network
#: fault is injected at t=200 and cleared at t=320; the agent dies for
#: 60 s right on top of it — the hardest moment to lose an agent.
CRASH_START_S = 210.0
CRASH_END_S = 270.0

#: ``arm(issue, seed, live) -> leg dict``.  ``live`` is the case's
#: scratch dict: an arm may leave live objects there (its scenario, its
#: outcome) for a later arm of the same case to re-score.
Arm = Callable[[object, int, Dict[str, object]], Dict[str, object]]


# ----------------------------------------------------------------------
# The campaign leg's pieces, shared by every arm of every gate
# ----------------------------------------------------------------------


def build_case(issue, seed: int, **world) -> MonitoredScenario:
    """The 16-GPU world of one (issue, seed) case, built but not run.

    Every case gets its own scenario seed, so no two issues of a sweep
    share placement or noise.
    """
    return build_scenario(
        num_containers=4, gpus_per_container=4, pp=2,
        seed=seed * 100 + issue.value, **world,
    )


def campaign_leg(
    issue, seed: int, skeleton: bool = True, chaos=None
) -> Tuple[MonitoredScenario, FaultOutcome]:
    """One Table-1 campaign leg: warm up, run the fault, score it.

    ``skeleton=False`` keeps the basic (rail-pruned) ping list live —
    what ``repro campaign`` measures; the gates probe the inferred
    skeleton, as production does.
    """
    scenario = build_case(issue, seed, hosts_per_segment=4, chaos=chaos)
    scenario.run_for(WARM_S)
    if skeleton:
        scenario.apply_skeleton()
    return scenario, scenario.run_fault(issue)


def campaign(seed: int = 0) -> Dict[str, object]:
    """``repro campaign``: every catalogued issue's leg on the basic
    ping list — how many were detected and localized, and each issue's
    ``[detected, localized]`` by name, in catalogue order."""

    def basic(issue, seed, live):
        return outcome_leg(campaign_leg(issue, seed, skeleton=False)[1])

    rows = sweep({"basic": basic}, [(i, seed) for i in FULL_ISSUES])
    issues = {row["issue"]: [row["basic"]["detected"],
                             row["basic"]["localized"]] for row in rows}
    detected, localized = map(sum, zip(*issues.values()))
    return {"detected": detected, "localized": localized, "issues": issues}


def outcome_leg(
    outcome: FaultOutcome, *fields: str, **extras
) -> Dict[str, object]:
    """The JSON slice of a scored fault: the two verdict flags, the
    named :class:`FaultOutcome` fields, and the arm's own ``extras``."""
    leg = {
        "detected": bool(outcome.detected),
        "localized": bool(outcome.localized),
    }
    leg.update((name, getattr(outcome, name)) for name in fields)
    leg.update(extras)
    return leg


def leg_mark(leg: Dict[str, object]) -> str:
    """How every gate table renders a leg: MISS, det or det+loc."""
    if not leg["detected"]:
        return "MISS"
    return "det+loc" if leg["localized"] else "det"


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Bounds:
    """What a gate's treatment arm must retain of its baseline arm."""

    #: Treatment-arm detected count as a fraction of the baseline's.
    min_recall_ratio: float = 0.9
    #: Treatment-arm localized count as a fraction of the baseline's.
    min_localization_ratio: float = 0.75

    def check(self, summary: Dict[str, object]) -> List[str]:
        """Violated bounds, as human-readable strings (empty = pass)."""
        return [
            f"{name} ratio {summary[key]:.3f} < {floor}"
            for name, key, floor in (
                ("recall", "recall_ratio", self.min_recall_ratio),
                ("localization", "localization_ratio",
                 self.min_localization_ratio),
            )
            if summary[key] < floor
        ]


#: What a gate compares between two arms: (name, leg flag counted,
#: summary key of the treatment / baseline ratio).
_COMPARED = (
    ("recall", "detected", "recall_ratio"),
    ("localization", "localized", "localization_ratio"),
)


def sweep(
    arms: Dict[str, Arm], cases: Iterable[Tuple[object, int]]
) -> Iterator[Dict[str, object]]:
    """cases x arms -> rows, one row per case as it finishes."""
    for issue, seed in cases:
        live: Dict[str, object] = {}
        row: Dict[str, object] = {"issue": issue.name, "seed": seed}
        for name, arm in arms.items():
            row[name] = arm(issue, seed, live)
        yield row


class Gate:
    """cases x arms -> rows -> counts -> ratios -> bounds -> report.

    A gate definition names its ``arms`` (run in order for every case),
    says which is the ``baseline`` and which the ``treatment``, lists
    its ``cases``, and may add its own summary numbers (``extras``),
    its own violations (``check``) and its own report lines
    (``footer``).  The engine owns everything else.
    """

    title: str
    arms: Dict[str, Arm]
    baseline: str
    treatment: str

    def cases(self, seed: int) -> List[Tuple[object, int]]:
        """The (issue, seed) cases of a run."""
        raise NotImplementedError

    def config(self, seed: int) -> Dict[str, object]:
        """Gate-specific entries of the report's ``config``."""
        return {}

    def extras(
        self, rows: List[Dict[str, object]], seed: int
    ) -> Dict[str, object]:
        """Gate-specific summary numbers, computed from the rows."""
        return {}

    def check(self, summary: Dict[str, object]) -> List[str]:
        """Gate-specific violations, beyond the two :class:`Bounds`."""
        return []

    def footer(self, summary: Dict[str, object]) -> List[str]:
        """Gate-specific report lines, printed above the verdict."""
        return []

    def run(
        self,
        seed: int = 0,
        out: Optional[str] = None,
        bounds: Optional[Bounds] = None,
    ) -> Dict[str, object]:
        """Run every case through every arm and evaluate the bounds.

        Returns the JSON-ready report (written to ``out`` when given);
        ``report["summary"]["passed"]`` tells callers whether every
        bound held.  An empty case list is refused: it would pass
        vacuously.
        """
        bounds = bounds if bounds is not None else Bounds()
        rows = list(sweep(self.arms, self.cases(seed)))
        if not rows:
            raise ValueError(f"{self.title}: no cases to compare")
        summary: Dict[str, object] = {"cases": len(rows)}
        for arm in self.arms:
            for key in ("detected", "localized"):
                summary[f"{arm}_{key}"] = sum(
                    1 for row in rows if row[arm][key]
                )
        for _, key, ratio in _COMPARED:
            base = summary[f"{self.baseline}_{key}"]
            summary[ratio] = (
                summary[f"{self.treatment}_{key}"] / base if base else 1.0
            )
        summary.update(self.extras(rows, seed))
        violations = bounds.check(summary) + self.check(summary)
        summary["passed"] = not violations
        summary["violations"] = violations
        report = {
            "config": {
                "seed": seed, **self.config(seed), "bounds": asdict(bounds),
            },
            "rows": rows,
            "summary": summary,
        }
        if out is not None:
            with open(out, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
                handle.write("\n")
        return report

    def format_report(self, report: Dict[str, object]) -> str:
        """Render a :meth:`run` report for terminals."""
        lines = [self.title]
        lines.append(
            f"  {'issue':<28} {'seed':>4}"
            + "".join(f" {arm:>11}" for arm in self.arms)
        )
        for row in report["rows"]:
            lines.append(
                f"  {row['issue'].lower():<28} {row['seed']:>4}"
                + "".join(
                    f" {leg_mark(row[arm]):>11}" for arm in self.arms
                )
            )
        summary = report["summary"]
        cases = summary["cases"]
        for name, key, ratio in _COMPARED:
            lines.append(
                f"{name}: {self.baseline} "
                f"{summary[f'{self.baseline}_{key}']}/{cases} -> "
                f"{self.treatment} "
                f"{summary[f'{self.treatment}_{key}']}/{cases} "
                f"(ratio {summary[ratio]:.3f})"
            )
        lines.extend(self.footer(summary))
        if summary["passed"]:
            lines.append("bounds: PASS")
        else:
            for violation in summary["violations"]:
                lines.append(f"bounds: FAIL - {violation}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The monitor-chaos gate
# ----------------------------------------------------------------------


def standard_chaos(
    seed: int, telemetry_loss: float = 0.10
) -> MonitorFaultInjector:
    """The gate's standard monitor-plane weather.

    Telemetry samples and probe reports are both lost at
    ``telemetry_loss``, for the whole run; one agent crashes for the
    ``CRASH_START_S``–``CRASH_END_S`` window.  Fault ids are pinned so
    two injectors built from the same arguments draw identical fates
    regardless of process history.
    """
    injector = MonitorFaultInjector(seed=seed)
    injector.inject_issue(
        MonitorIssue.TELEMETRY_DROP, start=0.0,
        rate=telemetry_loss, fault_id=0,
    )
    injector.inject_issue(
        MonitorIssue.PROBE_REPORT_LOSS, start=0.0,
        rate=telemetry_loss, fault_id=1,
    )
    injector.inject_issue(
        MonitorIssue.AGENT_CRASH, start=CRASH_START_S, end=CRASH_END_S,
        scope=CRASH_SCOPE, fault_id=2,
    )
    return injector


def _monitor_stats(scenario: MonitoredScenario) -> Dict[str, int]:
    """Aggregate hardened-prober counters across the task's agents."""
    stats = {
        "retries": 0, "retry_successes": 0, "reports_lost": 0,
        "monitor_failures": 0, "rounds_skipped": 0,
        "breaker_trips": 0, "breaker_recoveries": 0,
    }
    controller = scenario.hunter.controller
    for task_id in controller.monitored_tasks():
        for agent in controller.agents_of(task_id):
            stats["rounds_skipped"] += agent.rounds_skipped
            prober = agent.prober
            if prober is None:
                continue
            stats["retries"] += prober.retries
            stats["retry_successes"] += prober.retry_successes
            stats["reports_lost"] += prober.reports_lost
            stats["monitor_failures"] += prober.monitor_failures
            if prober.breaker is not None:
                stats["breaker_trips"] += prober.breaker.trips
                stats["breaker_recoveries"] += prober.breaker.recoveries
    return stats


class ChaosGate(Gate):
    """Clean monitor vs the standard chaos weather, skeleton list live.

    Hardening is only worth shipping if it provably keeps the pipeline
    useful while the monitor itself is failing: chaos may cost a
    bounded fraction of recall, never the pipeline.
    """

    title = "chaos degradation gate: clean vs standard monitor chaos"
    baseline = "clean"
    treatment = "chaos"

    def __init__(self, telemetry_loss: float = 0.10) -> None:
        self.telemetry_loss = telemetry_loss
        self.arms = {"clean": self._clean, "chaos": self._chaos}

    def _clean(self, issue, seed: int, live) -> Dict[str, object]:
        return self._leg(issue, seed, None)

    def _chaos(self, issue, seed: int, live) -> Dict[str, object]:
        return self._leg(
            issue, seed, standard_chaos(seed, self.telemetry_loss)
        )

    @staticmethod
    def _leg(issue, seed: int, chaos) -> Dict[str, object]:
        scenario, outcome = campaign_leg(issue, seed, chaos=chaos)
        return outcome_leg(
            outcome, "detection_delay_s", **_monitor_stats(scenario)
        )

    def cases(self, seed: int) -> List[Tuple[object, int]]:
        return [(issue, seed) for issue in FULL_ISSUES]

    def config(self, seed: int) -> Dict[str, object]:
        return {
            "telemetry_loss": self.telemetry_loss,
            "crash_scope": CRASH_SCOPE,
            "crash_window_s": [CRASH_START_S, CRASH_END_S],
        }

    def extras(
        self, rows: List[Dict[str, object]], seed: int
    ) -> Dict[str, object]:
        summary: Dict[str, object] = {
            "telemetry_loss": self.telemetry_loss
        }
        for counter in (
            "retries", "retry_successes", "monitor_failures",
            "rounds_skipped", "breaker_trips", "breaker_recoveries",
        ):
            summary[counter] = sum(row["chaos"][counter] for row in rows)
        return summary

    def footer(self, summary: Dict[str, object]) -> List[str]:
        return [
            f"monitor: {summary['retries']} retries "
            f"({summary['retry_successes']} recovered), "
            f"{summary['monitor_failures']} reports abandoned, "
            f"{summary['rounds_skipped']} agent rounds skipped, "
            f"{summary['breaker_trips']} breaker trips / "
            f"{summary['breaker_recoveries']} recoveries"
        ]
