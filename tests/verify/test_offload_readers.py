"""Step 3 and the offload-consistency pass, pinned side by side.

Both read one OVS ↔ RNIC diff: Step 3 (``RnicValidator.validate``) to
blame an RNIC, the verifier pass to list inconsistencies cluster-wide.
They disagree on purpose about two mismatches, and this file pins that
too:

* a rule stuck on the software path is Step-3 evidence (an RNIC that
  cannot offload) but no verifier finding (a forced VTEP is a state,
  not an inconsistency);
* a hardware rule OVS did not offload to that cache is no Step-3
  evidence (a dump diagnoses the flows its own RNIC carries) but a
  verifier finding: an ERROR when another cache on the host is the
  one OVS named, a WARNING otherwise.

``tests/golden/offload_readers.json`` holds, for 26 offload states on
each of two seeds, every suspicious RNIC's Step-3 result (the
silent-invalidation and software-path counts and the reasons in order)
and the pass's ERROR findings as ``check: component`` in order.  It was
generated at commit bb87b59, before the two readers shared the diff,
and regenerates with::

    PYTHONPATH=src python tests/verify/test_offload_readers.py \\
        > tests/golden/offload_readers.json
"""

import json
import pathlib

import pytest

from repro.cluster.flowtable import ActionKind, FlowAction, FlowKey
from repro.core.rnic_validation import RnicValidator
from repro.network.issues import IssueType
from repro.verify.flowtable_passes import OffloadConsistencyPass
from repro.verify.framework import Severity, VerificationContext
from repro.workloads.scenarios import build_scenario

GOLDEN = (
    pathlib.Path(__file__).resolve().parent.parent
    / "golden" / "offload_readers.json"
)

SEEDS = (0, 1)

#: The catalogue issues that change offload state.
ISSUES = (
    IssueType.REPETITIVE_FLOW_OFFLOADING,
    IssueType.OFFLOADING_FAILURE,
    IssueType.NOT_USING_RDMA,
    IssueType.RNIC_GID_CHANGE,
)


def world(seed):
    """A 4 x 4 scenario (one container and four RNIC caches per host)
    whose every endpoint has sent to the endpoint four ranks on."""
    scenario = build_scenario(
        num_containers=4, gpus_per_container=4, pp=2, seed=seed,
        hosts_per_segment=4,
    )
    send(scenario, 4)
    return scenario


def send(scenario, offset):
    """Install the flow from every endpoint to the one ``offset`` on."""
    overlay = scenario.cluster.overlay
    endpoints = overlay.attached_endpoints()
    for i, src in enumerate(endpoints):
        overlay.ensure_flow(src, endpoints[(i + offset) % len(endpoints)])


def readings(scenario):
    """What each reader makes of the scenario's offload state."""
    overlay = scenario.cluster.overlay
    validator = RnicValidator(scenario.cluster)
    step3 = {}
    for rnic in overlay.offload_rnics():
        finding = validator.validate(rnic)
        if finding.suspicious:
            step3[str(rnic)] = [
                finding.silently_invalidated,
                finding.software_path_rules,
                [item.reason for item in finding.inconsistencies],
            ]
    result = OffloadConsistencyPass().run(
        VerificationContext.from_scenario(scenario)
    )
    errors = [
        f"{f.check}: {f.component}" for f in result.findings
        if f.severity is Severity.ERROR
    ]
    return {"step3": step3, "errors": errors}


def offloaded_rule(scenario):
    """The first rule of host-0's OVS table offloaded into an RNIC
    cache, with that RNIC and the host's next one."""
    overlay = scenario.cluster.overlay
    host = overlay.hosts_with_tables()[0]
    rnics = [r for r in overlay.offload_rnics() if r.host == host]
    for rule in overlay.ovs_table(host).rules():
        owner = next((r for r in rnics if str(r) == rule.offloaded_to), None)
        if rule.offloaded and owner is not None:
            other = rnics[(rnics.index(owner) + 1) % len(rnics)]
            return rule, owner, other
    raise AssertionError("host-0 has no offloaded rule")


def _moved(action):
    """An action no rule of the scenario carries."""
    return FlowAction(ActionKind.ENCAP, remote_underlay_ip="198.51.100.77")


def stale_key(scenario, rule, owner, other):
    overlay = scenario.cluster.overlay
    overlay.offload_table(owner).install(FlowKey(999, "203.0.113.9"),
                                         rule.action)


def corrupt_action(scenario, rule, owner, other):
    hw = scenario.cluster.overlay.offload_table(owner).lookup(rule.key)
    hw.action = _moved(rule.action)


def demoted_while_held(scenario, rule, owner, other):
    rule.offloaded = False


def nowhere_but_held(scenario, rule, owner, other):
    rule.offloaded = False
    rule.offloaded_to = None


def nowhere_but_held_elsewise(scenario, rule, owner, other):
    nowhere_but_held(scenario, rule, owner, other)
    corrupt_action(scenario, rule, owner, other)


def second_holder(scenario, rule, owner, other):
    overlay = scenario.cluster.overlay
    overlay.offload_table(other).install(rule.key, rule.action)


def second_holder_elsewise(scenario, rule, owner, other):
    overlay = scenario.cluster.overlay
    overlay.offload_table(other).install(rule.key, _moved(rule.action))


def owner_without_cache(scenario, rule, owner, other):
    rule.offloaded_to = f"{owner.host}/rnic-9"


def owner_unset(scenario, rule, owner, other):
    rule.offloaded_to = None


CORRUPTIONS = (
    stale_key,
    corrupt_action,
    demoted_while_held,
    nowhere_but_held,
    nowhere_but_held_elsewise,
    second_holder,
    second_holder_elsewise,
    owner_without_cache,
    owner_unset,
)


def observe(seed):
    """Every pinned state of one seed, in a fixed order."""
    states = {"healthy": readings(world(seed))}
    for issue in ISSUES:
        scenario = world(seed)
        target = scenario.rnic_of_rank(0)
        if issue is IssueType.NOT_USING_RDMA:
            target = target.host
        injector = scenario.injector
        fault = injector.inject_issue(issue, target, start=1.0)
        states[f"{issue.name}/held"] = readings(scenario)
        send(scenario, 8)
        states[f"{issue.name}/held+flows"] = readings(scenario)
        injector.clear(fault, at=2.0)
        states[f"{issue.name}/cleared"] = readings(scenario)
        send(scenario, 12)
        states[f"{issue.name}/cleared+flows"] = readings(scenario)
    for corrupt in CORRUPTIONS:
        scenario = world(seed)
        corrupt(scenario, *offloaded_rule(scenario))
        states[corrupt.__name__] = readings(scenario)
    return states


@pytest.fixture(scope="module")
def observed():
    return {str(seed): observe(seed) for seed in SEEDS}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_both_readers_match_the_golden(observed, golden):
    assert list(observed) == list(golden)
    for seed, states in golden.items():
        assert list(observed[seed]) == list(states)
        for state, expected in states.items():
            assert observed[seed][state] == expected, (seed, state)


def test_the_golden_is_not_vacuous(golden):
    for states in golden.values():
        assert len(states) == 26
        assert states["healthy"] == {"step3": {}, "errors": []}
        invalidated = states["REPETITIVE_FLOW_OFFLOADING/held"]
        assert invalidated["errors"]
        assert all(row[0] > 0 for row in invalidated["step3"].values())
        assert states["stale_key"]["errors"]
        assert states["corrupt_action"]["errors"]


def test_software_path_is_step3_evidence_but_no_verifier_error(golden):
    for states in golden.values():
        held = states["OFFLOADING_FAILURE/held+flows"]
        assert held["errors"] == []
        assert any(row[1] > 0 for row in held["step3"].values())


def test_a_rule_not_offloaded_to_a_cache_is_no_step3_evidence(golden):
    for states in golden.values():
        for state in ("second_holder", "second_holder_elsewise"):
            assert states[state]["step3"] == {}
            assert len(states[state]["errors"]) == 1
        assert states["demoted_while_held"] == {"step3": {}, "errors": []}
        # Held by host-0/rnic-0, offloaded nowhere: that cache's dump is
        # clean while its siblings' show the rule on the software path.
        held = states["nowhere_but_held"]
        assert held["errors"] == []
        assert "host-0/rnic-0" not in held["step3"]
        assert len(held["step3"]) == 3


if __name__ == "__main__":
    print(json.dumps(
        {str(seed): observe(seed) for seed in SEEDS}, indent=1
    ))
