"""Gray-failure degradation gate under benchmark timing.

Regenerates ``BENCH_gray.json``'s numbers: every gray family (PFC
storm, congestion collapse, partial link degradation) is injected once
under static per-flow ECMP — the clean baseline — and once under
per-packet spraying, and the spraying leg's detection recall and
localization rate must stay within the gate's ``Bounds`` of the
baseline's.  The sweep also pins shard-plane equivalence, the
distribution-aware-vs-naive voting comparison, and the Flock
probabilistic baseline, over both seeds and shard counts (2, 4), as the
committed artifact does.
"""

from conftest import print_table, run_once
from repro.chaos.gate import Bounds, leg_mark
from repro.chaos.gray import GrayGate


def test_gray_degradation_gate(benchmark):
    def experiment():
        return GrayGate().run(seed=0)

    report = run_once(benchmark, experiment)

    print_table(
        "Gray gate: static-ECMP baseline vs spraying",
        ["family", "static", "spray", "naive", "flock"],
        [[row["issue"].lower(),
          *(leg_mark(row[arm])
            for arm in ("static", "spray", "spray_naive", "flock"))]
         for row in report["rows"]],
    )
    summary = report["summary"]
    for key in ("recall_ratio", "localization_ratio",
                "distribution_aware_localized", "naive_localized",
                "flock_detected", "flock_localized"):
        benchmark.extra_info[key] = summary[key]

    bounds = Bounds()
    assert summary["recall_ratio"] >= bounds.min_recall_ratio
    assert (
        summary["localization_ratio"] >= bounds.min_localization_ratio
    )
    # Distribution-aware voting is the point of the spraying pipeline:
    # it must never do worse than pretending probes ride pinned paths.
    assert (
        summary["distribution_aware_localized"]
        >= summary["naive_localized"]
    )
    assert summary["passed"]
