#!/usr/bin/env python
"""A full failure campaign over all 19 Table-1 issue types.

Injects every production issue type the paper catalogues — one scenario
each — and prints a Table-1-style report: symptom, detection delay, and
the component SkeletonHunter localized the failure to.

Run:  python examples/failure_campaign.py
"""

from repro import IssueType, build_scenario
from repro.network.issues import ISSUE_CATALOG


def main() -> None:
    header = (f"{'#':>2} {'issue':<30} {'symptom':<15} "
              f"{'detected':<9} {'delay':<7} {'localized to'}")
    print(header)
    print("-" * len(header))

    detected = localized = 0
    campaign_counters: dict = {}
    for issue in IssueType:
        scenario = build_scenario(
            num_containers=4, gpus_per_container=4, pp=2,
            seed=7000 + issue.value, hosts_per_segment=4, observe=True,
        )
        scenario.run_for(200)
        # Inject at the catalogue's standard target for this kind of
        # issue, hold it 120 s, clear it, cool down 40 s, score it.
        outcome = scenario.run_fault(issue)
        detected += outcome.detected
        localized += outcome.localized
        spec = ISSUE_CATALOG[issue]
        delay = ("-" if outcome.detection_delay_s is None
                 else f"{outcome.detection_delay_s:.0f}s")
        print(f"{spec.number:>2} {issue.name.lower():<30} "
              f"{spec.symptom.value:<15} "
              f"{'yes' if outcome.detected else 'NO':<9} {delay:<7} "
              f"{outcome.localized_component or '(not localized)'}")
        for name, value in \
                scenario.observability.metrics.counters().items():
            campaign_counters[name] = \
                campaign_counters.get(name, 0) + value

    print("-" * len(header))
    print(f"detected {detected}/19 issue types, "
          f"localized {localized}/19 to a correct component")
    print("\ncampaign-wide counters (summed over all 19 runs):")
    for name in ("probes.sent", "probes.lost", "anomalies.detected",
                 "events.opened", "diagnoses.made"):
        print(f"  {name:<20} {campaign_counters.get(name, 0):.0f}")


if __name__ == "__main__":
    main()
