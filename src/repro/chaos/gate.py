"""The degradation gate: bounded accuracy loss under monitor chaos.

Hardening is only worth shipping if it provably keeps the pipeline
useful while the monitor itself is failing.  This module runs the same
fault campaign twice — once with a perfect monitor, once under the
*standard chaos weather* (telemetry loss + probe-report loss at a
configurable rate, plus one sidecar-agent crash window) — and compares
detection recall and localization rate.  The committed artifact
(``BENCH_chaos.json``) and the ``repro chaos`` CLI both assert the
:class:`DegradationBounds`: chaos may cost a bounded fraction of recall,
never the pipeline.

Everything is seeded: the campaign scenarios, the chaos schedule (fault
ids are pinned so repeated runs in one process draw identical fates),
and the retry jitter — so the gate's numbers are reproducible bit for
bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.chaos.faults import MonitorFaultInjector, MonitorIssue
from repro.core.resilience import RetryPolicy
from repro.network.issues import GrayIssueType, IssueType, all_issue_types
from repro.workloads.scenarios import build_scenario, standard_fault_target

__all__ = [
    "DegradationBounds",
    "FULL_ISSUES",
    "QUICK_ISSUES",
    "format_report",
    "run_chaos_benchmark",
    "standard_chaos",
]

#: The full gate sweeps every catalogued issue — Table 1 plus the gray
#: families — exactly like ``repro campaign``; adding a family to the
#: catalog extends the sweep with no edits here.  The quick (CI smoke)
#: subset keeps one issue per layer plus one gray family.
FULL_ISSUES: Tuple[object, ...] = all_issue_types()
QUICK_ISSUES: Tuple[object, ...] = (
    IssueType.RNIC_PORT_DOWN,
    IssueType.SWITCH_PORT_DOWN,
    IssueType.CONTAINER_CRASH,
    GrayIssueType.PARTIAL_LINK_DEGRADATION,
)

#: The sidecar agent crashed during the chaos run (container id string;
#: chosen away from the standard fault targets so the crash degrades
#: coverage rather than blinding the campaign's victim pairs).
CRASH_SCOPE = "task-0/node-3"
#: The crash window relative to the campaign timeline: the network
#: fault is injected at t=200 and cleared at t=320; the agent dies for
#: 60 s right on top of it — the hardest moment to lose an agent.
CRASH_START_S = 210.0
CRASH_END_S = 270.0


@dataclass(frozen=True)
class DegradationBounds:
    """What the hardened pipeline must retain under standard chaos."""

    #: Chaos-run detection recall as a fraction of the clean run's.
    min_recall_ratio: float = 0.9
    #: Chaos-run localization rate as a fraction of the clean run's.
    min_localization_ratio: float = 0.75

    def check(self, summary: Dict[str, float]) -> List[str]:
        """Violated bounds, as human-readable strings (empty = pass)."""
        failures = []
        if summary["recall_ratio"] < self.min_recall_ratio:
            failures.append(
                f"recall ratio {summary['recall_ratio']:.3f} < "
                f"{self.min_recall_ratio}"
            )
        if summary["localization_ratio"] < self.min_localization_ratio:
            failures.append(
                f"localization ratio "
                f"{summary['localization_ratio']:.3f} < "
                f"{self.min_localization_ratio}"
            )
        return failures


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


def _run_case(
    issue,
    seed: int,
    chaos: Optional[MonitorFaultInjector],
) -> Dict[str, object]:
    """One campaign leg (clean or chaotic) for one issue."""
    scenario = build_scenario(
        num_containers=4, gpus_per_container=4, pp=2,
        seed=seed * 100 + issue.value, hosts_per_segment=4,
        chaos=chaos,
        retry_policy=RetryPolicy(seed=seed) if chaos is not None else None,
    )
    scenario.run_for(200)
    scenario.apply_skeleton()
    fault = scenario.inject(
        issue, standard_fault_target(scenario, issue)
    )
    scenario.run_for(120)
    scenario.clear(fault)
    scenario.run_for(40)
    _, outcomes = scenario.score()
    outcome = outcomes[0]
    monitor = _monitor_stats(scenario)
    return {
        "detected": bool(outcome.detected),
        "localized": bool(outcome.localized),
        "detection_delay_s": outcome.detection_delay_s,
        **monitor,
    }


def _monitor_stats(scenario) -> Dict[str, int]:
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


def run_chaos_benchmark(
    quick: bool = False,
    seed: int = 0,
    out: Optional[str] = None,
    telemetry_loss: float = 0.10,
    bounds: Optional[DegradationBounds] = None,
) -> Dict[str, object]:
    """Run the clean-vs-chaos campaign and evaluate the bounds.

    Returns the JSON-ready report; ``report["summary"]["passed"]``
    tells callers whether every :class:`DegradationBounds` held.
    """
    bounds = bounds if bounds is not None else DegradationBounds()
    issues = QUICK_ISSUES if quick else FULL_ISSUES
    rows = []
    for issue in issues:
        clean = _run_case(issue, seed, chaos=None)
        chaotic = _run_case(
            issue, seed, chaos=standard_chaos(seed, telemetry_loss)
        )
        rows.append({
            "issue": issue.name,
            "clean": clean,
            "chaos": chaotic,
        })

    def rate(leg: str, key: str) -> float:
        return sum(1 for r in rows if r[leg][key]) / len(rows)

    clean_recall = rate("clean", "detected")
    chaos_recall = rate("chaos", "detected")
    clean_loc = rate("clean", "localized")
    chaos_loc = rate("chaos", "localized")
    summary = {
        "issues": len(rows),
        "telemetry_loss": telemetry_loss,
        "clean_recall": clean_recall,
        "chaos_recall": chaos_recall,
        "recall_ratio": (
            chaos_recall / clean_recall if clean_recall else 1.0
        ),
        "clean_localization": clean_loc,
        "chaos_localization": chaos_loc,
        "localization_ratio": (
            chaos_loc / clean_loc if clean_loc else 1.0
        ),
        "retries": sum(r["chaos"]["retries"] for r in rows),
        "retry_successes": sum(
            r["chaos"]["retry_successes"] for r in rows
        ),
        "monitor_failures": sum(
            r["chaos"]["monitor_failures"] for r in rows
        ),
        "rounds_skipped": sum(
            r["chaos"]["rounds_skipped"] for r in rows
        ),
        "breaker_trips": sum(r["chaos"]["breaker_trips"] for r in rows),
        "breaker_recoveries": sum(
            r["chaos"]["breaker_recoveries"] for r in rows
        ),
    }
    violations = bounds.check(summary)
    summary["passed"] = not violations
    summary["violations"] = violations
    report = {
        "config": {
            "quick": quick,
            "seed": seed,
            "telemetry_loss": telemetry_loss,
            "crash_scope": CRASH_SCOPE,
            "crash_window_s": [CRASH_START_S, CRASH_END_S],
            "bounds": {
                "min_recall_ratio": bounds.min_recall_ratio,
                "min_localization_ratio": bounds.min_localization_ratio,
            },
        },
        "rows": rows,
        "summary": summary,
    }
    if out is not None:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return report


def format_report(report: Dict[str, object]) -> str:
    """Render the gate report for terminals."""
    lines = ["chaos degradation gate: clean vs standard monitor chaos"]
    lines.append(
        f"  {'issue':<28} {'clean':>12} {'chaos':>12} "
        f"{'retries':>8} {'skipped':>8}"
    )

    def leg(case: Dict[str, object]) -> str:
        mark = "det" if case["detected"] else "MISS"
        mark += "+loc" if case["localized"] else ""
        return mark

    for row in report["rows"]:
        lines.append(
            f"  {row['issue'].lower():<28} {leg(row['clean']):>12} "
            f"{leg(row['chaos']):>12} "
            f"{row['chaos']['retries']:>8} "
            f"{row['chaos']['rounds_skipped']:>8}"
        )
    summary = report["summary"]
    lines.append(
        f"recall: clean {summary['clean_recall']:.3f} -> chaos "
        f"{summary['chaos_recall']:.3f} "
        f"(ratio {summary['recall_ratio']:.3f})"
    )
    lines.append(
        f"localization: clean {summary['clean_localization']:.3f} -> "
        f"chaos {summary['chaos_localization']:.3f} "
        f"(ratio {summary['localization_ratio']:.3f})"
    )
    lines.append(
        f"monitor: {summary['retries']} retries "
        f"({summary['retry_successes']} recovered), "
        f"{summary['monitor_failures']} reports abandoned, "
        f"{summary['rounds_skipped']} agent rounds skipped, "
        f"{summary['breaker_trips']} breaker trips / "
        f"{summary['breaker_recoveries']} recoveries"
    )
    if summary["passed"]:
        lines.append("bounds: PASS")
    else:
        for violation in summary["violations"]:
            lines.append(f"bounds: FAIL - {violation}")
    return "\n".join(lines)
