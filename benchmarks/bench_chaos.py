"""Monitor-plane degradation gate under benchmark timing.

Regenerates ``BENCH_chaos.json``'s numbers: the Table-1 fault campaign
is run twice — once with a perfect monitor, once under the standard
chaos weather (10% telemetry + probe-report loss, one 60 s sidecar
crash) — and the hardened pipeline must keep detection recall within
10% and the localization rate within 25% of the clean run, over all 22
issues (Table 1 plus the gray-failure families), as the committed
artifact does.
"""

from conftest import print_table, run_once
from repro.chaos.gate import Bounds, ChaosGate, leg_mark


def test_chaos_degradation_gate(benchmark):
    def experiment():
        return ChaosGate().run(seed=0)

    report = run_once(benchmark, experiment)

    print_table(
        "Degradation gate: clean vs standard monitor chaos",
        ["issue", "clean", "chaos", "retries", "skipped rounds"],
        [[row["issue"].lower(),
          leg_mark(row["clean"]), leg_mark(row["chaos"]),
          row["chaos"]["retries"], row["chaos"]["rounds_skipped"]]
         for row in report["rows"]],
    )
    summary = report["summary"]
    for key in ("recall_ratio", "localization_ratio", "retries",
                "retry_successes", "breaker_trips",
                "breaker_recoveries"):
        benchmark.extra_info[key] = summary[key]

    bounds = Bounds()
    assert summary["recall_ratio"] >= bounds.min_recall_ratio
    assert (
        summary["localization_ratio"] >= bounds.min_localization_ratio
    )
    # The chaos leg must visibly exercise the hardening, or the gate
    # proves nothing: reports were retried and the crashed agent's
    # breaker tripped and later recovered.
    assert summary["retry_successes"] > 0
    assert summary["breaker_trips"] > 0
    assert summary["breaker_recoveries"] > 0
