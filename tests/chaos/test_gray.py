"""Tests for the gray-failure degradation gate and its helpers."""

import pytest

from repro.chaos.gate import FULL_ISSUES, Bounds, uplink_target
from repro.chaos.gray import (
    GRAY_FAMILIES,
    GrayGate,
    _case,
    _run_leg,
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
    """The gray gate's violations: the engine's two bounds, and none of
    its own."""

    @staticmethod
    def _violations(summary):
        return Bounds().check(summary) + GrayGate().check(summary)

    def _summary(self, **overrides):
        summary = {
            "recall_ratio": 1.0,
            "localization_ratio": 1.0,
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


class TestArms:
    def test_arm_wiring_and_the_flock_arm_rescoring_the_spray_run(
        self, monkeypatch
    ):
        """No simulation: the legs are stubs, so this pins only which
        world each arm asks for, that Flock is tapped into the spray
        world before it runs, and whose run and reports the Flock arm
        scores (on the committed artifact Flock's flags equal the spray
        arm's in most rows, so the full gate cannot see a Flock arm
        that merely copies them)."""
        from types import SimpleNamespace

        from repro.chaos import gray
        from repro.chaos.gate import sweep

        log, rescored = [], []

        def case(issue, seed, ecmp_mode):
            hunter = SimpleNamespace()
            return SimpleNamespace(mode=ecmp_mode, hunter=hunter), "load"

        def tap_flock(scenario):
            log.append(f"tap {scenario.mode}")
            return [f"flock-{scenario.mode}"]

        def run_leg(issue, seed, scenario, load_model):
            world = scenario.mode
            log.append(f"run {world}")
            scenario.hunter.events = [world]
            return scenario, SimpleNamespace(
                fault=f"fault-{world}", detected=True, localized=False,
                localized_component=None, detection_delay_s=8.0,
            )

        def score_flock(scenario, fault, reports):
            rescored.append((scenario.hunter.events, fault, reports))
            return SimpleNamespace(
                detected=False, localized=True,
                localized_component="by-flock",
            )

        monkeypatch.setattr(gray, "_case", case)
        monkeypatch.setattr(gray, "_tap_flock", tap_flock)
        monkeypatch.setattr(gray, "_run_leg", run_leg)
        monkeypatch.setattr(gray, "_score_flock", score_flock)
        issue = GrayIssueType.PFC_STORM
        (row,) = sweep(GrayGate().arms, [(issue, 0)])
        assert log == ["run static", "tap spray", "run spray"]
        assert rescored == [(["spray"], "fault-spray", ["flock-spray"])]
        assert row["flock"] == {
            "detected": False, "localized": True,
            "localized_component": "by-flock",
        }
        assert row["spray"] == {
            "detected": True, "localized": False,
            "localized_component": None, "detection_delay_s": 8.0,
            "events": 1,
        }
        assert list(row) == ["issue", "seed", "static", "spray", "flock"]


class TestFlockEvidence:
    @pytest.mark.parametrize("issue", GRAY_FAMILIES)
    def test_flock_localizes_each_batch_the_pipeline_localized(
        self, issue, monkeypatch
    ):
        """Flock is called once per hunter report, at its time, and
        votes against a subset of the task's active pairs at that
        moment — never the analyzer's whole probe history."""
        from repro.baselines import FlockLocalizer
        from repro.chaos import gray

        calls = []
        scenario, load_model = _case(issue, 0, "spray")
        controller = scenario.hunter.controller

        class Recording(FlockLocalizer):
            def localize(self, events, healthy_pairs=(), now=0.0):
                active = controller.ping_list_of(scenario.task.id)
                calls.append((
                    now, set(healthy_pairs), set(active.active_pairs())
                ))
                return super().localize(events, healthy_pairs, now)

        monkeypatch.setattr(gray, "FlockLocalizer", Recording)
        reports = gray._tap_flock(scenario)
        _run_leg(issue, 0, scenario, load_model)
        hunter = scenario.hunter
        assert len(calls) == len(reports) == len(hunter.reports) > 0
        assert [now for now, _, _ in calls] == [
            when for when, _ in hunter.reports
        ]
        for _, healthy, active in calls:
            assert healthy <= active
        assert len(hunter.monitored_pairs()) > len(active)


class TestFaultTarget:
    def test_target_is_a_probed_fabric_link(self):
        scenario = build_scenario(
            num_containers=4, gpus_per_container=4, pp=2,
            seed=3, hosts_per_segment=2, ecmp_mode="spray",
        )
        load_model = LinkLoadModel.from_workload(
            scenario.workload, scenario.cluster
        )
        target = uplink_target(scenario, load_model)
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
            targets.append(uplink_target(scenario, load_model))
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
            uplink_target(_Scenario(), LinkLoadModel({}))


class TestShardSpec:
    def test_spec_is_pure_data_and_deterministic(self):
        assert gray_shard_spec(seed=0) == gray_shard_spec(seed=0)

    def test_spec_carries_a_sprayed_gray_fault(self):
        """Every gray family on its own uplink, plus the two RNIC
        failures that make the plane localize at three rounds."""
        spec = gray_shard_spec(seed=0)
        assert spec.ecmp_mode == "spray"
        gray = spec.faults[:len(GRAY_FAMILIES)]
        assert [f.issue for f in gray] == [i.name for i in GRAY_FAMILIES]
        assert len({f.target for f in gray}) == len(GRAY_FAMILIES)
        assert [f.issue for f in spec.faults[len(GRAY_FAMILIES):]] == [
            "RNIC_PORT_DOWN", "RNIC_PORT_DOWN",
        ]
        degradation = gray[GRAY_FAMILIES.index(
            GrayIssueType.PARTIAL_LINK_DEGRADATION
        )]
        # Keyed-draw severity rides in the spec itself, sorted so the
        # spec hashes identically on every replica.
        for fault in gray:
            keys = [key for key, _ in fault.overrides]
            assert keys == sorted(keys)
        assert "loss_rate" in [key for key, _ in degradation.overrides]


@pytest.mark.slow
class TestEndToEnd:
    def test_static_leg_detects_and_flags_partial_degradation(self):
        issue = GrayIssueType.PARTIAL_LINK_DEGRADATION
        scenario, outcome = _run_leg(
            issue, 0, *_case(issue, 0, "static")
        )
        assert outcome.detected
        assert len(scenario.hunter.events) >= 1

    def test_spray_leg_detects_and_localizes_collapse(self):
        issue = GrayIssueType.CONGESTION_COLLAPSE
        _, outcome = _run_leg(issue, 0, *_case(issue, 0, "spray"))
        assert outcome.detected
        assert outcome.localized
