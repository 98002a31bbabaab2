"""Tests for the gray-failure degradation gate and its helpers."""

import pytest

from repro.chaos.gate import FULL_ISSUES
from repro.chaos.gate import Bounds
from repro.chaos.gray import (
    GRAY_FAMILIES,
    GrayGate,
    _run_leg,
    gray_fault_target,
    gray_shard_spec,
)
from repro.network.issues import (
    GrayIssueType,
    all_issue_types,
    lookup_issue,
    spec_of,
)
from repro.network.load import LinkLoadModel
from repro.workloads.scenarios import build_scenario


class TestCatalog:
    def test_every_gray_family_is_swept(self):
        assert set(GRAY_FAMILIES) == set(GrayIssueType)

    def test_gray_families_ride_the_chaos_gate(self):
        # The degradation gate iterates the shared catalogue, so a new
        # gray family lands in its sweep without per-family edits.
        assert set(GrayIssueType) <= set(FULL_ISSUES)
        assert set(FULL_ISSUES) == set(all_issue_types())

    def test_gray_families_resolve_by_name(self):
        for issue in GrayIssueType:
            assert lookup_issue(issue.name) is issue
            assert spec_of(issue).target_kind == "link"


class TestBounds:
    """The gray gate's violations: the engine's two bounds plus its own
    naive-must-not-win check, in the order a report lists them."""

    @staticmethod
    def _violations(summary):
        return Bounds().check(summary) + GrayGate().check(summary)

    def _summary(self, **overrides):
        summary = {
            "recall_ratio": 1.0,
            "localization_ratio": 1.0,
            "distribution_aware_localized": 3,
            "naive_localized": 1,
        }
        summary.update(overrides)
        return summary

    def test_clean_summary_passes(self):
        assert self._violations(self._summary()) == []

    def test_recall_violation_reported(self):
        failures = self._violations(self._summary(recall_ratio=0.5))
        assert len(failures) == 1
        assert "recall" in failures[0]

    def test_localization_violation_reported(self):
        failures = self._violations(
            self._summary(localization_ratio=0.5)
        )
        assert len(failures) == 1
        assert "localization" in failures[0]

    def test_naive_voting_must_not_win(self):
        failures = self._violations(
            self._summary(
                distribution_aware_localized=0, naive_localized=2
            )
        )
        assert len(failures) == 1
        assert "distribution-aware" in failures[0]


class TestArms:
    def test_arm_wiring_and_the_flock_arm_rescoring_the_spray_run(
        self, monkeypatch
    ):
        """No simulation: the legs are stubs, so this pins only which
        world each arm asks for and whose run the Flock arm re-scores
        (on the committed artifact Flock's flags equal the spray arm's
        in all six rows, so the full gate cannot see a Flock arm that
        merely copies them)."""
        from types import SimpleNamespace

        from repro.chaos import gray
        from repro.chaos.gate import sweep

        asked, rescored = [], []

        def run_leg(issue, seed, ecmp_mode, distribution_aware=True):
            asked.append((ecmp_mode, distribution_aware))
            world = f"{ecmp_mode}-{distribution_aware}"
            return (
                SimpleNamespace(hunter=SimpleNamespace(events=[world])),
                SimpleNamespace(
                    fault=f"fault-{world}", detected=True, localized=False,
                    localized_component=None, detection_delay_s=8.0,
                ),
            )

        def score_flock(scenario, fault):
            rescored.append((scenario.hunter.events, fault))
            return SimpleNamespace(
                detected=False, localized=True,
                localized_component="by-flock",
            )

        monkeypatch.setattr(gray, "_run_leg", run_leg)
        monkeypatch.setattr(gray, "_score_flock", score_flock)
        issue = GrayIssueType.PFC_STORM
        (row,) = sweep(GrayGate().arms, [(issue, 0)])
        assert asked == [
            ("static", True), ("spray", True), ("spray", False),
        ]
        assert rescored == [(["spray-True"], "fault-spray-True")]
        assert row["flock"] == {
            "detected": False, "localized": True,
            "localized_component": "by-flock",
        }
        assert row["spray_naive"] == {
            "detected": True, "localized": False,
            "localized_component": None, "detection_delay_s": 8.0,
            "events": 1,
        }
        assert list(row) == [
            "issue", "seed", "static", "spray", "spray_naive", "flock",
        ]


class TestFaultTarget:
    def test_target_is_a_probed_fabric_link(self):
        scenario = build_scenario(
            num_containers=4, gpus_per_container=4, pp=2,
            seed=3, hosts_per_segment=2, ecmp_mode="spray",
        )
        load_model = LinkLoadModel.from_workload(
            scenario.workload, scenario.cluster
        )
        target = gray_fault_target(scenario, load_model)
        assert scenario.topology.has_link(target)
        assert "/rnic-" not in target.a
        assert "/rnic-" not in target.b

    def test_target_agrees_across_ecmp_modes(self):
        # traceroute reports the static hash pick regardless of mode,
        # so both gate legs fault the same link.
        targets = []
        for mode in ("static", "spray"):
            scenario = build_scenario(
                num_containers=4, gpus_per_container=4, pp=2,
                seed=3, hosts_per_segment=2, ecmp_mode=mode,
            )
            load_model = LinkLoadModel.from_workload(
                scenario.workload, scenario.cluster
            )
            targets.append(gray_fault_target(scenario, load_model))
        assert targets[0] == targets[1]

    def test_unprobed_scenario_rejected(self):
        # No agents means no probed pairs and no fabric crossings: the
        # gate must refuse rather than fault an arbitrary link.
        class _Controller:
            @staticmethod
            def monitored_tasks():
                return []

            @staticmethod
            def agents_of(task_id):
                return []

        class _Hunter:
            controller = _Controller()

        class _Scenario:
            hunter = _Hunter()

        with pytest.raises(ValueError):
            gray_fault_target(_Scenario(), LinkLoadModel({}))


class TestShardSpec:
    def test_spec_is_pure_data_and_deterministic(self):
        assert gray_shard_spec(seed=0) == gray_shard_spec(seed=0)

    def test_spec_carries_a_sprayed_gray_fault(self):
        spec = gray_shard_spec(seed=0)
        assert spec.ecmp_mode == "spray"
        assert len(spec.faults) == 1
        fault = spec.faults[0]
        assert fault.issue == (
            GrayIssueType.PARTIAL_LINK_DEGRADATION.name
        )
        # Keyed-draw severity rides in the spec itself, sorted so the
        # spec hashes identically on every replica.
        keys = [key for key, _ in fault.overrides]
        assert keys == sorted(keys)
        assert "loss_rate" in keys


@pytest.mark.slow
class TestEndToEnd:
    def test_static_leg_detects_and_flags_partial_degradation(self):
        scenario, outcome = _run_leg(
            GrayIssueType.PARTIAL_LINK_DEGRADATION, seed=0,
            ecmp_mode="static",
        )
        assert outcome.detected
        assert len(scenario.hunter.events) >= 1

    def test_spray_leg_detects_and_localizes_collapse(self):
        _, outcome = _run_leg(
            GrayIssueType.CONGESTION_COLLAPSE, seed=0,
            ecmp_mode="spray",
        )
        assert outcome.detected
        assert outcome.localized
