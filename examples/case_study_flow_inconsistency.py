#!/usr/bin/env python
"""The paper's Figure-18 case study, step by step.

A training pair runs at a stable ~16 us RTT until the RNIC silently
invalidates its offloaded flows: the control plane still believes the
flows are in hardware, but packets fall back to the software stack and
the RTT jumps to ~120 us with a trickle of loss.  SkeletonHunter flags
the latency distribution shift, fails to find an overlay or underlay
culprit, dumps the RNIC flow tables, spots the OVS-vs-RNIC
inconsistency, and the RNIC is isolated; metrics recover within a
minute.

Run:  python examples/case_study_flow_inconsistency.py
"""

from repro import IssueType, build_scenario
from repro.cluster import FlowKey


def main() -> None:
    scenario = build_scenario(
        num_containers=4, gpus_per_container=4, pp=2, seed=1818
    )
    scenario.run_for(200)

    pair = scenario.hunter.monitored_pairs()[0]
    rnic = scenario.cluster.overlay.rnic_of(pair.src)
    probe = lambda: scenario.fabric.send_probe(  # noqa: E731
        pair.src, pair.dst, scenario.engine.now
    )

    print(f"watching pair {pair.src} <-> {pair.dst} via {rnic}")
    healthy = probe()
    print(f"[t={scenario.engine.now:6.0f}s] healthy RTT: "
          f"{healthy.latency_us:.1f} us")

    fault = scenario.inject(IssueType.REPETITIVE_FLOW_OFFLOADING, rnic)
    broken = probe()
    print(f"[t={scenario.engine.now:6.0f}s] after silent invalidation: "
          f"{broken.latency_us:.1f} us "
          f"(software path: {broken.software_path})")

    scenario.run_for(90)
    for event in scenario.hunter.events:
        print(f"[t={event.first_detected_at:6.0f}s] ALARM: "
              f"{event.symptom.value} on {event.pair.src} <-> "
              f"{event.pair.dst}")

    # The operator's confirming dump: OVS vs RNIC hardware table.
    finding = scenario.hunter.localizer.validator.validate(rnic)
    print(f"[t={scenario.engine.now:6.0f}s] flow-table dump of {rnic}: "
          f"{finding.silently_invalidated} flows marked offloaded in "
          f"OVS but missing from the RNIC "
          f"({finding.invalidation_count} hardware invalidations)")
    # The pair's OVS rule as `ovs-ofctl dump-flows` shows it: still
    # marked offloaded, still matching every probe.
    overlay = scenario.cluster.overlay
    key = FlowKey(
        overlay.vni_of(pair.dst.container.task), overlay.overlay_ip(pair.dst)
    )
    rule = overlay.ovs_table(rnic.host).lookup(key)
    print(f"[t={scenario.engine.now:6.0f}s]   OVS rule {key}: "
          f"offloaded={rule.offloaded}, n_packets={rule.packets}, "
          f"in the RNIC table: "
          f"{overlay.offload_table(rnic).lookup(key) is not None}")

    for when, report in scenario.hunter.reports:
        for diagnosis in report.diagnoses[:2]:
            print(f"[t={when:6.0f}s] localized: {diagnosis.component} "
                  f"[{diagnosis.layer}] - {diagnosis.evidence}")

    print(f"[t={scenario.engine.now:6.0f}s] isolating the RNIC...")
    scenario.clear(fault)
    scenario.run_for(60)
    recovered = probe()
    print(f"[t={scenario.engine.now:6.0f}s] recovered RTT: "
          f"{recovered.latency_us:.1f} us")


if __name__ == "__main__":
    main()
