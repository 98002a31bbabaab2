"""``MonitoredScenario.run_fault`` against the sequence it replaced.

The inject -> run -> clear -> cool down -> score leg used to be written
out by hand in the CLI, the recorder, both gates, a benchmark and an
example.  ``_by_hand`` is that sequence, kept verbatim as the oracle:
the same issue on an identically built scenario must produce the same
events, reports, outcome and probe count through ``run_fault``.
"""

import pytest

from repro.bus.codec import encode_event, encode_verdict
from repro.network.faults import gray_injection_overrides
from repro.network.issues import GrayIssueType, IssueType, spec_of
from repro.workloads.scenarios import build_scenario, standard_fault_target


def _scenario(seed=7, **world):
    scenario = build_scenario(
        num_containers=4, gpus_per_container=4, pp=2, seed=seed,
        hosts_per_segment=4, **world,
    )
    scenario.run_for(200)
    scenario.apply_skeleton()
    return scenario


def _by_hand(scenario, issue, target, fault_s, cool_s, **overrides):
    """The parent's leg, as ``repro campaign`` / the gates spelled it."""
    fault = scenario.inject(issue, target, **overrides)
    scenario.run_for(fault_s)
    scenario.clear(fault)
    scenario.run_for(cool_s)
    _, outcomes = scenario.score()
    return outcomes[0]


def _observed(scenario, outcome):
    """Everything a caller of the leg can see afterwards."""
    hunter = scenario.hunter
    return {
        "events": [
            encode_event(e.pair, e.first_detected_at, e.symptom)
            for e in hunter.events
        ],
        "reports": [encode_verdict(at, r) for at, r in hunter.reports],
        "outcome": (
            outcome.fault.issue, str(outcome.fault.target),
            outcome.fault.start, outcome.fault.end, outcome.observable,
            outcome.detected, outcome.detection_delay_s,
            outcome.localized, outcome.localized_component,
            len(outcome.matched_events),
        ),
        "probes_sent": scenario.fabric.probes_sent,
        "now": scenario.engine.now,
    }


#: One issue per catalogue ``target_kind``.
PER_KIND = (
    IssueType.SWITCH_PORT_DOWN,           # link
    IssueType.SWITCH_OFFLINE,             # switch
    IssueType.RNIC_PORT_DOWN,             # rnic
    IssueType.HUGEPAGE_MISCONFIGURATION,  # host
    IssueType.CONTAINER_CRASH,            # container
)


def test_one_issue_per_target_kind_is_covered():
    assert {spec_of(issue).target_kind for issue in PER_KIND} == {
        "link", "switch", "rnic", "host", "container",
    }


@pytest.mark.parametrize("issue", PER_KIND, ids=lambda i: i.name.lower())
def test_defaults_equal_the_hand_written_leg(issue):
    """Default target, 120 s of fault, 40 s of cool-down."""
    oracle = _scenario()
    expected = _observed(oracle, _by_hand(
        oracle, issue, standard_fault_target(oracle, issue), 120, 40
    ))
    scenario = _scenario()
    outcome = scenario.run_fault(issue)
    assert _observed(scenario, outcome) == expected
    assert outcome.detected  # the comparison is not vacuous


def test_explicit_target_durations_and_overrides_are_honoured():
    """A gray family on a hand-picked link with drawn severities and
    the recorder's durations: none of the four may be ignored."""
    issue = GrayIssueType.PARTIAL_LINK_DEGRADATION

    def target_of(scenario):
        pair = scenario.hunter.monitored_pairs()[-1]
        return scenario.fabric.traceroute(pair.src, pair.dst).links[-2]

    oracle = _scenario(seed=3)
    target = target_of(oracle)
    overrides = gray_injection_overrides(issue, target, seed=3)
    expected = _observed(oracle, _by_hand(
        oracle, issue, target, 80, 140, **overrides
    ))
    scenario = _scenario(seed=3)
    assert target != standard_fault_target(scenario, issue)
    outcome = scenario.run_fault(
        issue, target_of(scenario), fault_s=80, cool_s=140, **overrides
    )
    assert _observed(scenario, outcome) == expected
    assert outcome.fault.target == target
    assert outcome.fault.end - outcome.fault.start == 80
    assert scenario.engine.now == outcome.fault.end + 140
    for name, value in overrides.items():
        assert getattr(outcome.fault, name) == value


def test_each_call_scores_its_own_fault():
    """A second leg on the same scenario returns the second fault's
    outcome, not the campaign's first."""
    scenario = _scenario()
    first = scenario.run_fault(IssueType.RNIC_PORT_DOWN, fault_s=60)
    second = scenario.run_fault(IssueType.CONTAINER_CRASH, fault_s=60)
    faults = scenario.injector.all_faults()
    assert [first.fault, second.fault] == faults
    assert second.fault.issue is IssueType.CONTAINER_CRASH
    assert second.detected
    assert all(
        event.first_detected_at >= second.fault.start
        for event in second.matched_events
    )


def test_the_fault_is_cleared_before_the_cool_down():
    scenario = _scenario()
    outcome = scenario.run_fault(IssueType.RNIC_PORT_DOWN)
    assert outcome.fault.end == outcome.fault.start + 120
    assert scenario.injector.active_faults(scenario.engine.now) == []
