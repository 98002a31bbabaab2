"""Tests for randomized chaos schedules.

``tests/golden/chaos_plans.json`` pins target selection: the plans a
schedule over all 19 Table-1 issues draws on six seeds, generated at
commit d1b7e5c *before* ``_pick_target`` started dispatching on the
catalogue's ``target_kind``::

    git archive d1b7e5c | tar -x -C /root/scratch/parent
    PYTHONPATH=/root/scratch/parent/src \
        python tests/workloads/test_chaos.py \
        > tests/golden/chaos_plans.json
"""

import json
import pathlib

import pytest

from repro.cluster.container import Container
from repro.network.issues import IssueType
from repro.workloads.chaos import ChaosSchedule
from repro.workloads.scenarios import build_scenario


GOLDEN = (
    pathlib.Path(__file__).resolve().parent.parent
    / "golden" / "chaos_plans.json"
)


def plan_rows():
    """``{seed: [[at, duration, issue, target], ...]}`` over the whole
    Table-1 catalogue — every RNG draw of planning shows in a row."""
    plans = {}
    for seed in range(6):
        scenario = build_scenario(
            num_containers=4, gpus_per_container=4, pp=2, seed=seed,
            hosts_per_segment=4,
        )
        scenario.run_for(10)    # agents registered: pairs to pick from
        chaos = ChaosSchedule(
            scenario, mean_interarrival_s=60.0, issue_mix=tuple(IssueType)
        )
        plans[str(seed)] = [
            [
                p.at, p.duration_s, p.issue.name,
                str(p.target.id if isinstance(p.target, Container)
                    else p.target),
            ]
            for p in chaos.generate(0.0, 20000.0)
        ]
    return plans


@pytest.fixture
def scenario():
    return build_scenario(
        num_containers=4, gpus_per_container=4, pp=2, seed=404,
        hosts_per_segment=4,
    )


class TestPlanning:
    def test_plan_respects_horizon(self, scenario):
        chaos = ChaosSchedule(scenario, mean_interarrival_s=100.0)
        plan = chaos.generate(start=200.0, horizon=2000.0)
        assert plan
        for planned in plan:
            assert 200.0 <= planned.at < 2000.0
            assert planned.duration_s >= 20.0

    def test_faults_are_serialized(self, scenario):
        chaos = ChaosSchedule(scenario, mean_interarrival_s=50.0)
        plan = chaos.generate(start=0.0, horizon=5000.0)
        for earlier, later in zip(plan, plan[1:]):
            assert later.at > earlier.clears_at

    def test_max_faults_cap(self, scenario):
        chaos = ChaosSchedule(scenario, mean_interarrival_s=10.0)
        plan = chaos.generate(start=0.0, horizon=1e6, max_faults=5)
        assert len(plan) == 5

    def test_reproducible_from_seed(self):
        def plan_signature(seed):
            scenario = build_scenario(
                num_containers=4, gpus_per_container=4, pp=2,
                seed=seed, hosts_per_segment=4,
            )
            chaos = ChaosSchedule(scenario)
            return [
                (p.at, p.issue, str(p.target))
                for p in chaos.generate(0.0, 5000.0)
            ]

        assert plan_signature(7) == plan_signature(7)
        assert plan_signature(7) != plan_signature(8)

    def test_invalid_timing_rejected(self, scenario):
        with pytest.raises(ValueError):
            ChaosSchedule(scenario, mean_interarrival_s=0.0)

    def test_plans_equal_the_parents_draw_for_draw(self):
        golden = json.loads(GOLDEN.read_text())
        plans = plan_rows()
        assert plans == golden
        planned = [row for rows in golden.values() for row in rows]
        assert len(planned) > 300
        assert {row[2] for row in planned} == {i.name for i in IssueType}

    def test_targets_match_issue_kinds(self, scenario):
        from repro.cluster.identifiers import (
            HostId, LinkId, RnicId, SwitchId,
        )

        chaos = ChaosSchedule(scenario, mean_interarrival_s=30.0)
        plan = chaos.generate(0.0, 20000.0)
        kinds = {
            IssueType.CRC_ERROR: LinkId,
            IssueType.SWITCH_OFFLINE: SwitchId,
            IssueType.RNIC_PORT_DOWN: RnicId,
            IssueType.HUGEPAGE_MISCONFIGURATION: HostId,
            IssueType.CONTAINER_CRASH: Container,
        }
        for planned in plan:
            expected = kinds.get(planned.issue)
            if expected is not None:
                assert isinstance(planned.target, expected), planned


class TestExecution:
    def test_armed_faults_fire_and_clear(self, scenario):
        chaos = ChaosSchedule(scenario, mean_interarrival_s=120.0)
        plan = chaos.generate(start=150.0, horizon=1200.0, max_faults=2)
        chaos.arm()
        scenario.run_for(plan[-1].clears_at + 200.0)
        faults = chaos.faults()
        assert len(faults) == len(plan)
        for fault in faults:
            assert fault.end is not None  # cleared on schedule

    def test_soak_campaign_detection_quality(self, scenario):
        """A compressed 'month': randomized faults, scored end to end."""
        scenario.run_for(200)  # baselines first
        chaos = ChaosSchedule(
            scenario, mean_interarrival_s=60.0, mean_duration_s=60.0
        )
        plan = chaos.generate(
            start=scenario.engine.now + 30.0, horizon=1e9, max_faults=6
        )
        chaos.arm()
        scenario.run_for(plan[-1].clears_at + 250.0 - scenario.engine.now)
        score, outcomes = scenario.score(chaos.faults())
        observable = [o for o in outcomes if o.observable]
        detected = [o for o in observable if o.detected]
        assert len(detected) >= len(observable) - 1
        assert score.precision >= 0.9
        localized = [o for o in detected if o.localized]
        assert len(localized) >= len(detected) - 1


if __name__ == "__main__":
    # One planned fault per line.
    print("{\n" + ",\n".join(
        f'"{seed}": [\n'
        + ",\n".join(json.dumps(row) for row in rows) + "\n]"
        for seed, rows in plan_rows().items()
    ) + "\n}")
