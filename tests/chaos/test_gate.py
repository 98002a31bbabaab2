"""Tests for the degradation-gate engine and the monitor-chaos gate
(repro.chaos.gate)."""

import json

import pytest

from repro.chaos.faults import MonitorIssue
from repro.chaos.gate import (
    CRASH_SCOPE,
    Bounds,
    ChaosGate,
    Gate,
    build_case,
    campaign_leg,
    leg_mark,
    standard_chaos,
    sweep,
)
from repro.network.issues import GrayIssueType, IssueType

from tests.chaos.test_faults import fates_of


class TestStandardChaos:
    def test_composition_and_pinned_fault_ids(self):
        injector = standard_chaos(seed=0, telemetry_loss=0.10)
        faults = injector.all_faults()
        assert [f.issue for f in faults] == [
            MonitorIssue.TELEMETRY_DROP,
            MonitorIssue.PROBE_REPORT_LOSS,
            MonitorIssue.AGENT_CRASH,
        ]
        assert [f.fault_id for f in faults] == [0, 1, 2]
        assert faults[0].rate == faults[1].rate == 0.10
        assert faults[2].scope == CRASH_SCOPE
        assert faults[2].start < faults[2].end

    def test_rebuilding_draws_identical_fates(self):
        """Pinned fault ids make the weather a pure function of the
        arguments — a replica rebuilt later in the same process sees
        the same chaos (the module-global fault counter must not
        leak in)."""
        from repro.cluster.identifiers import (
            ContainerId, EndpointId, TaskId,
        )

        src = EndpointId(ContainerId(TaskId(0), 0), 0)
        dst = EndpointId(ContainerId(TaskId(0), 1), 0)

        def fates():
            return fates_of(standard_chaos(seed=3), src, dst, range(100))

        assert fates() == fates()


class TestBounds:
    def test_passing_summary_has_no_violations(self):
        bounds = Bounds()
        assert bounds.check(
            {"recall_ratio": 1.0, "localization_ratio": 0.8}
        ) == []

    def test_each_bound_reports_its_violation(self):
        bounds = Bounds(
            min_recall_ratio=0.9, min_localization_ratio=0.75
        )
        violations = bounds.check(
            {"recall_ratio": 0.5, "localization_ratio": 0.5}
        )
        assert len(violations) == 2
        assert any("recall" in v for v in violations)
        assert any("localization" in v for v in violations)


#: One issue per layer plus one gray family: the in-suite slice of the
#: gate's 22 cases (``repro equivalence`` runs them all).
ONE_PER_LAYER = (
    IssueType.RNIC_PORT_DOWN,
    IssueType.SWITCH_PORT_DOWN,
    IssueType.CONTAINER_CRASH,
    GrayIssueType.PARTIAL_LINK_DEGRADATION,
)


class TestQuickGate:
    def test_quick_gate_passes_and_exercises_the_hardening(
        self, monkeypatch
    ):
        """The in-suite acceptance check: 10% telemetry loss plus one
        agent crash keeps recall within the committed bounds, and the
        chaos leg demonstrably retried reports and tripped breakers."""
        monkeypatch.setattr(ChaosGate, "cases", lambda self, seed: [
            (issue, seed) for issue in ONE_PER_LAYER
        ])
        report = ChaosGate().run(seed=0)
        summary = report["summary"]
        assert summary["passed"], summary["violations"]
        assert summary["cases"] == len(ONE_PER_LAYER)
        assert summary["recall_ratio"] >= 0.9
        assert summary["retry_successes"] > 0
        assert summary["breaker_trips"] > 0
        assert summary["breaker_recoveries"] > 0
        for row in report["rows"]:
            assert row["clean"]["retries"] == 0
            assert row["clean"]["rounds_skipped"] == 0


class _ToyGate(Gate):
    """Synthetic arms: a leg is looked up, not simulated.  ``table``
    maps arm name -> the (detected, localized) flags of each case."""

    title = "toy gate"
    baseline = "base"
    treatment = "treat"

    def __init__(self, table, cases=3):
        self.table = table
        self.num_cases = cases
        self.arms = {name: self._arm(name) for name in table}

    def _arm(self, name):
        def arm(issue, seed, live):
            detected, localized = self.table[name][seed]
            live[name] = (issue, seed)
            return {"detected": detected, "localized": localized}
        return arm

    def cases(self, seed):
        return [
            (IssueType.CRC_ERROR, seed + n) for n in range(self.num_cases)
        ]


HIT, SEEN, MISS = (True, True), (True, False), (False, False)


class TestEngine:
    def test_counts_ratios_and_rows(self):
        report = _ToyGate({
            "base": [HIT, HIT, SEEN], "treat": [HIT, SEEN, MISS],
        }).run()
        summary = report["summary"]
        assert summary["cases"] == 3
        assert summary["base_detected"] == 3
        assert summary["base_localized"] == 2
        assert summary["treat_detected"] == 2
        assert summary["treat_localized"] == 1
        assert summary["recall_ratio"] == 2 / 3
        assert summary["localization_ratio"] == 1 / 2
        assert [(r["issue"], r["seed"]) for r in report["rows"]] == [
            ("CRC_ERROR", 0), ("CRC_ERROR", 1), ("CRC_ERROR", 2),
        ]
        assert report["rows"][1]["treat"] == {
            "detected": True, "localized": False,
        }
        assert report["config"] == {
            "seed": 0, "bounds": {
                "min_recall_ratio": 0.9, "min_localization_ratio": 0.75,
            },
        }

    def test_violation_strings_name_the_ratio_and_the_floor(self):
        summary = _ToyGate({
            "base": [HIT, HIT, SEEN], "treat": [HIT, SEEN, MISS],
        }).run()["summary"]
        assert not summary["passed"]
        assert summary["violations"] == [
            "recall ratio 0.667 < 0.9",
            "localization ratio 0.500 < 0.75",
        ]

    def test_a_ratio_exactly_on_its_bound_passes(self):
        gate = _ToyGate(
            {"base": [HIT] * 4, "treat": [HIT, HIT, HIT, SEEN]}, cases=4
        )
        summary = gate.run(bounds=Bounds(1.0, 0.75))["summary"]
        assert summary["localization_ratio"] == 0.75
        assert summary["passed"], summary["violations"]

    def test_zero_baseline_is_a_ratio_of_one_not_a_division(self):
        summary = _ToyGate({
            "base": [MISS, MISS, MISS], "treat": [HIT, MISS, MISS],
        }).run()["summary"]
        assert summary["recall_ratio"] == 1.0
        assert summary["localization_ratio"] == 1.0
        assert summary["passed"]

    def test_baseline_and_treatment_are_not_interchangeable(self):
        table = {"base": [HIT, HIT, HIT], "treat": [HIT, MISS, MISS]}
        assert not _ToyGate(table).run()["summary"]["passed"]
        swapped = _ToyGate(table)
        swapped.baseline, swapped.treatment = "treat", "base"
        summary = swapped.run()["summary"]
        assert summary["recall_ratio"] == 3.0
        assert summary["passed"]

    def test_empty_case_list_is_rejected_as_vacuous(self):
        gate = _ToyGate({"base": [], "treat": []}, cases=0)
        with pytest.raises(ValueError, match="no cases"):
            gate.run()

    def test_an_arm_can_rescore_an_earlier_arms_leg(self):
        """Arms run in definition order and share the case's ``live``
        dict — how the gray gate's Flock arm reads the spray leg."""
        seen = []

        def first(issue, seed, live):
            live[f"run-{seed}"] = issue
            return {"detected": True, "localized": False}

        def rescoring(issue, seed, live):
            seen.append(dict(live))
            return {"detected": True, "localized": True}

        rows = list(sweep(
            {"first": first, "again": rescoring},
            [(IssueType.CRC_ERROR, 4), (IssueType.CRC_ERROR, 5)],
        ))
        # Each case got a fresh scratch dict holding only its own run.
        assert seen == [
            {"run-4": IssueType.CRC_ERROR}, {"run-5": IssueType.CRC_ERROR},
        ]
        assert [row["again"]["localized"] for row in rows] == [True, True]

    def test_extras_checks_and_footer_reach_the_report(self, tmp_path):
        class Extra(_ToyGate):
            def config(self, seed):
                return {"knob": 7}

            def extras(self, rows, seed):
                return {"rows_seen": len(rows)}

            def check(self, summary):
                return ["toy check failed"]

            def footer(self, summary):
                return [f"toy: {summary['rows_seen']} rows"]

        gate = Extra({"base": [HIT] * 3, "treat": [HIT] * 3})
        out = tmp_path / "toy.json"
        report = gate.run(out=str(out))
        assert report["config"]["knob"] == 7
        assert report["summary"]["rows_seen"] == 3
        assert report["summary"]["violations"] == ["toy check failed"]
        assert json.loads(out.read_text()) == report
        text = gate.format_report(report)
        assert text.splitlines()[0] == "toy gate"
        assert "recall: base 3/3 -> treat 3/3 (ratio 1.000)" in text
        assert "toy: 3 rows" in text
        assert text.endswith("bounds: FAIL - toy check failed")
        assert text.count("det+loc") == 6

    def test_leg_mark(self):
        assert leg_mark({"detected": False, "localized": False}) == "MISS"
        assert leg_mark({"detected": True, "localized": False}) == "det"
        assert leg_mark({"detected": True, "localized": True}) == "det+loc"


class TestCampaignLeg:
    def test_each_case_has_its_own_scenario_seed(self):
        seeds = {
            build_case(issue, seed).rng.seed
            for issue in (IssueType.CRC_ERROR, IssueType.RNIC_PORT_DOWN)
            for seed in (0, 1)
        }
        assert seeds == {1, 7, 101, 107}

    @pytest.mark.parametrize("issue", [
        IssueType.RNIC_FIRMWARE_NOT_RESPONDING,
        IssueType.SUBOPTIMAL_FLOW_OFFLOADING,
    ], ids=lambda i: i.name.lower())
    def test_skeleton_pruning_costs_these_two_their_localization(
        self, issue
    ):
        """Today's behaviour, pinned because two scripts used to hide
        it from each other: at seed 0 all 22 issues localize on the
        basic ping list (``repro campaign``: 22/22), and these two are
        detected but no longer localized once the skeleton list is live
        (``repro chaos`` clean arm: 20/22).  The localization corpus
        kept the count rule for pinned routes, so the number stands at
        20/22 under the kept rule; when a later rule or list moves it,
        update this test with the new number rather than deleting
        it."""
        _, basic = campaign_leg(issue, 0, skeleton=False)
        assert basic.detected and basic.localized
        _, pruned = campaign_leg(issue, 0)
        assert pruned.detected and not pruned.localized
