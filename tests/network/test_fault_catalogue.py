"""The 22-issue parameter table, pinned to what the factories built.

``network/faults.py`` used to turn an issue into a :class:`Fault`
through eight factory functions; it is now one ``_PARAMS`` row per
issue under the catalogue's ``target_kind``.  ``tests/golden/
fault_catalogue.json`` is every field of every fault the *factories*
produced on the 4 x 4 campaign scenario — each issue at its
``standard_fault_target``, the gray families also on a ToR–spine link
(where a PFC storm centres on the spine) — generated at commit d1b7e5c
*before* the factories were deleted::

    git archive d1b7e5c | tar -x -C /root/scratch/parent
    PYTHONPATH=/root/scratch/parent/src \
        python tests/network/test_fault_catalogue.py \
        > tests/golden/fault_catalogue.json
"""

import dataclasses
import json
import pathlib

import pytest

from repro.cluster.container import Container
from repro.cluster.identifiers import HostId, LinkId, RnicId, SwitchId
from repro.network.faults import FaultInjector, storm_center
from repro.network.issues import GrayIssueType, all_issue_types, spec_of
from repro.workloads.scenarios import build_scenario, standard_fault_target

GOLDEN = (
    pathlib.Path(__file__).resolve().parent.parent
    / "golden" / "fault_catalogue.json"
)

#: The catalogue's ``target_kind`` vocabulary as identifier types.
SPECIES = {
    "link": LinkId,
    "switch": SwitchId,
    "rnic": RnicId,
    "host": HostId,
    "container": Container,
}


def campaign_scenario(hosts_per_segment=4, ecmp_mode="static"):
    scenario = build_scenario(
        num_containers=4, gpus_per_container=4, pp=2, seed=0,
        hosts_per_segment=hosts_per_segment, ecmp_mode=ecmp_mode,
    )
    scenario.run_for(200)   # as `repro campaign` does before injecting
    return scenario


def catalogue_targets(scenario):
    """``(issue, target)``: every issue at its standard target, then the
    gray families on the first ToR–spine link."""
    rows = [
        (issue, standard_fault_target(scenario, issue))
        for issue in all_issue_types()
    ]
    uplink = next(
        link for link in scenario.topology.links()
        if storm_center(link).startswith("spine-")
    )
    return rows + [(issue, uplink) for issue in GrayIssueType]


def _target_name(target):
    return str(target.id if isinstance(target, Container) else target)


def fault_row(fault):
    """Every public field of ``fault``, JSON-ready and order-free."""
    row = {
        f.name: getattr(fault, f.name)
        for f in dataclasses.fields(fault) if not f.name.startswith("_")
    }
    row["issue"] = fault.issue.name
    row["target"] = _target_name(fault.target)
    row["victim_links"] = sorted(str(link) for link in fault.victim_links)
    row["culprits"] = sorted(fault.culprits)
    return row


def catalogue_rows():
    scenario = campaign_scenario()
    rows = []
    for issue, target in catalogue_targets(scenario):
        # A fresh injector per issue: ids start at 0 and one issue's
        # overlay side effects never meet another's.
        injector = FaultInjector(scenario.cluster)
        fault = injector.inject_issue(issue, target, start=100.0)
        rows.append(fault_row(fault))
        injector.clear(fault, at=101.0)
    return rows


def test_parameter_table_reproduces_the_factories():
    golden = json.loads(GOLDEN.read_text())
    rows = catalogue_rows()
    assert len(rows) == len(golden) == 25
    for row, expected in zip(rows, golden):
        assert row == expected, expected["issue"]


def test_golden_covers_every_issue_and_species():
    golden = json.loads(GOLDEN.read_text())
    assert {row["issue"] for row in golden} == {
        issue.name for issue in all_issue_types()
    }
    storms = [row for row in golden if row["issue"] == "PFC_STORM"]
    assert any(
        culprit.startswith("spine-")
        for row in storms for culprit in row["culprits"]
    )
    assert all(row["victim_links"] for row in storms)


def test_one_parameter_row_and_one_species_per_catalogue_issue():
    from repro.network.faults import _PARAMS, _TARGET_TYPES

    assert set(_PARAMS) == set(all_issue_types())
    assert _TARGET_TYPES == SPECIES
    assert {spec_of(i).target_kind for i in all_issue_types()} == set(SPECIES)


@pytest.fixture(scope="module")
def scenario():
    return campaign_scenario()


@pytest.mark.parametrize(
    "issue", all_issue_types(), ids=lambda issue: issue.name
)
def test_every_wrong_species_is_rejected_by_name(scenario, issue):
    injector = FaultInjector(scenario.cluster)
    right = spec_of(issue).target_kind
    samples = {
        spec_of(other).target_kind: standard_fault_target(scenario, other)
        for other in all_issue_types()
    }
    assert set(samples) == set(SPECIES)
    assert isinstance(samples[right], SPECIES[right])
    for kind, target in samples.items():
        if kind != right:
            with pytest.raises(TypeError, match=SPECIES[right].__name__):
                injector.inject_issue(issue, target, start=0.0)
    assert injector.all_faults() == []


if __name__ == "__main__":
    print(json.dumps(catalogue_rows(), indent=1, sort_keys=True))
