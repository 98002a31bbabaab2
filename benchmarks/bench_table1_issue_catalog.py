"""Table 1: the nineteen production issue types.

Runs one injection campaign per issue type and reports, per row of the
paper's table: the observed symptom, whether SkeletonHunter detected it,
the component it localized to, and whether that matches ground truth.
"""

from conftest import print_table, run_once
from repro.network.issues import ISSUE_CATALOG, IssueType
from repro.workloads.scenarios import build_scenario


def _run_issue(issue):
    """One issue on the basic ping list (no skeleton step), injected at
    the scenario's ``standard_fault_target``."""
    scenario = build_scenario(
        num_containers=4, gpus_per_container=4, pp=2,
        seed=1000 + issue.value, hosts_per_segment=4,
    )
    scenario.run_for(200)
    outcome = scenario.run_fault(issue)
    return {
        "issue": issue,
        "detected": outcome.detected,
        "localized": outcome.localized,
        "component": outcome.localized_component,
        "delay": outcome.detection_delay_s,
    }


def test_table1_issue_campaign(benchmark):
    results = run_once(
        benchmark, lambda: [_run_issue(issue) for issue in IssueType]
    )

    rows = []
    for result in results:
        spec = ISSUE_CATALOG[result["issue"]]
        rows.append([
            spec.number,
            result["issue"].name.lower(),
            spec.component.value,
            spec.symptom.value,
            "yes" if result["detected"] else "NO",
            result["component"] or "-",
        ])
    print_table(
        "Table 1: per-issue detection and localization",
        ["#", "issue", "component class", "symptom", "detected",
         "localized to"],
        rows,
    )

    detected = sum(1 for r in results if r["detected"])
    localized = sum(1 for r in results if r["localized"])
    benchmark.extra_info["detected"] = detected
    benchmark.extra_info["localized"] = localized
    print(f"\ndetected {detected}/19, localized {localized}/19")

    # Every Table-1 issue type must be caught and pinned down.
    assert detected == 19
    assert localized == 19
