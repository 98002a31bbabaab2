"""Tests for typed cluster identifiers."""

import copy
import dataclasses
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.bus.codec import parse_endpoint
from repro.cluster.flowtable import FlowKey
from repro.cluster.identifiers import (
    ContainerId,
    EndpointId,
    HostId,
    LinkId,
    RnicId,
    SwitchId,
    TaskId,
    VfId,
    implicated_host,
)
from repro.core.pinglist import ProbePair
from repro.workloads.scenarios import build_scenario


class TestNaming:
    def test_host_name(self):
        assert str(HostId(3)) == "host-3"

    def test_rnic_name_includes_host_and_rail(self):
        assert str(RnicId(HostId(1), 2)) == "host-1/rnic-2"

    def test_vf_name(self):
        assert str(VfId(RnicId(HostId(0), 1), 5)) == "host-0/rnic-1/vf-5"

    def test_endpoint_name(self):
        endpoint = EndpointId(ContainerId(TaskId(2), 3), 1)
        assert str(endpoint) == "task-2/node-3/ep-1"

    def test_switch_name(self):
        assert str(SwitchId("tor", 7)) == "tor-7"


class TestOrderingAndHashing:
    def test_hosts_order_by_index(self):
        assert HostId(1) < HostId(2)

    def test_rnics_order_by_host_then_rail(self):
        assert RnicId(HostId(0), 3) < RnicId(HostId(1), 0)
        assert RnicId(HostId(0), 1) < RnicId(HostId(0), 2)

    def test_endpoints_usable_as_dict_keys(self):
        a = EndpointId(ContainerId(TaskId(0), 0), 0)
        b = EndpointId(ContainerId(TaskId(0), 0), 0)
        assert a == b
        assert {a: 1}[b] == 1

    def test_container_sorting_by_rank(self):
        task = TaskId(0)
        containers = [ContainerId(task, r) for r in (2, 0, 1)]
        assert [c.rank for c in sorted(containers)] == [0, 1, 2]


class TestLinkId:
    def test_between_is_order_insensitive(self):
        a, b = HostId(1), SwitchId("tor", 0)
        assert LinkId.between(a, b) == LinkId.between(b, a)

    def test_endpoints_stored_sorted(self):
        link = LinkId.between("zeta", "alpha")
        assert (link.a, link.b) == ("alpha", "zeta")

    def test_touches(self):
        link = LinkId.between("a", "b")
        assert link.touches("a")
        assert link.touches("b")
        assert not link.touches("c")

    def test_other_returns_opposite_endpoint(self):
        link = LinkId.between("a", "b")
        assert link.other("a") == "b"
        assert link.other("b") == "a"

    def test_other_rejects_non_member(self):
        with pytest.raises(ValueError):
            LinkId.between("a", "b").other("c")

    def test_str_format(self):
        assert str(LinkId.between("b", "a")) == "a<->b"


class TestImplicatedHost:
    """The one rule for which host a blamed name pulls from rotation."""

    RNIC = RnicId(HostId(3), 1)
    TOR = SwitchId("tor", 1)

    @pytest.mark.parametrize("name", [
        "host:host-3", "ovs:host-3", "host-3/rnic-1", "vtep:host-3/rnic-1",
        "host-3/rnic-1<->tor-1",
    ])
    def test_host_and_its_parts_implicate_it(self, name):
        assert implicated_host(name) == "host-3"

    @pytest.mark.parametrize("name", [
        "tor-1<->spine-0", "tor-1", "spine-0",
        "container:task-0/node-3", "veth:task-0/node-3/ep-1",
    ])
    def test_fabric_and_containers_implicate_none(self, name):
        assert implicated_host(name) is None

    def test_access_link_whichever_end_sorts_first(self):
        link = LinkId.between(self.TOR, self.RNIC)
        assert implicated_host(link) == str(self.RNIC.host)
        assert implicated_host(LinkId(str(self.TOR), str(self.RNIC))) \
            == str(self.RNIC.host)

    def test_host_names_do_not_prefix_match(self):
        assert implicated_host("host-13/rnic-0") == "host-13"
        assert implicated_host("host:host-13") != "host-1"


def samples():
    """Two or more values of every identifier class (and of the flow
    table's match key), with a few orderings to compare."""
    task = [TaskId(0), TaskId(3)]
    host = [HostId(0), HostId(7)]
    rnic = [RnicId(host[0], 1), RnicId(host[1], 0), RnicId(host[0], 0)]
    container = [ContainerId(task[0], 2), ContainerId(task[1], 0)]
    endpoint = [
        EndpointId(container[0], 1), EndpointId(container[1], 3),
        EndpointId(container[0], 0),
    ]
    return {
        HostId: host,
        TaskId: task,
        RnicId: rnic,
        VfId: [VfId(rnic[0], 5), VfId(rnic[1], 0)],
        ContainerId: container,
        EndpointId: endpoint,
        ProbePair: [
            ProbePair.canonical(endpoint[0], endpoint[1]),
            ProbePair(endpoint[1], endpoint[0]),
            ProbePair.canonical(endpoint[2], endpoint[0]),
        ],
        SwitchId: [SwitchId("tor", 7), SwitchId("spine", 0)],
        LinkId: [LinkId.between("tor-1", "spine-0"), LinkId.between("b", "a")],
        FlowKey: [FlowKey(100, "192.0.3.4"), FlowKey(101, "192.0.0.1")],
    }


def generated_twin(cls):
    """A plain frozen, ordered dataclass with ``cls``'s name and fields:
    what every identifier was before it carried its hash."""
    return dataclasses.make_dataclass(
        cls.__name__,
        [(f.name, f.type) for f in dataclasses.fields(cls)],
        frozen=True, order=True,
    )


def as_twin(value, twins):
    """``value`` rebuilt from twins, recursively."""
    if type(value) not in twins:
        return value
    return twins[type(value)](*(
        as_twin(getattr(value, f.name), twins)
        for f in dataclasses.fields(value)
    ))


def field_tuple(value):
    return tuple(getattr(value, f.name) for f in dataclasses.fields(value))


class TestHashContract:
    """Identifiers carry their hash: the one the generated dataclass
    ``__hash__`` computes, so set order and every digest built on it
    cannot drift; everything else is the generated dataclass."""

    def test_hash_is_the_field_tuples_hash(self):
        for values in samples().values():
            for value in values:
                assert hash(value) == hash(field_tuple(value))

    def test_the_rest_is_the_generated_dataclass(self):
        twins = {cls: generated_twin(cls) for cls in samples()}
        for cls, values in samples().items():
            assert [
                (f.name, f.type) for f in dataclasses.fields(cls)
            ] == [
                (f.name, f.type) for f in dataclasses.fields(twins[cls])
            ]
            for value in values:
                twin = as_twin(value, twins)
                assert repr(value) == repr(twin)
                assert dataclasses.asdict(value) == dataclasses.asdict(twin)
                assert hash(value) == hash(twin)
                assert dataclasses.replace(value) == value
                for other in values:
                    other_twin = as_twin(other, twins)
                    assert (value == other) == (twin == other_twin)
                    assert (value < other) == (twin < other_twin)
                    assert (value <= other) == (twin <= other_twin)

    def test_str_is_unchanged(self):
        assert [str(v) for v in samples()[EndpointId]] == [
            "task-0/node-2/ep-1", "task-3/node-0/ep-3", "task-0/node-2/ep-0",
        ]
        assert str(samples()[VfId][0]) == "host-0/rnic-1/vf-5"
        assert str(samples()[FlowKey][0]) == "vni=100,dst=192.0.3.4"

    def test_frozen(self):
        for values in samples().values():
            with pytest.raises(dataclasses.FrozenInstanceError):
                values[0].index = 1

    def test_no_pickle_carries_a_hash(self):
        for values in samples().values():
            for value in values:
                data = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
                assert b"_hash" not in data
                copy = pickle.loads(data)
                assert copy == value and hash(copy) == hash(value)

    def test_unpickled_under_another_hash_seed_hashes_as_built_there(self):
        # A spawned worker (the multiprocessing backend's fallback where
        # fork is unavailable) runs under its own str-hash seed.
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)
        )))
        child = subprocess.run(
            [sys.executable, "-c", _CHILD], input=pickle.dumps(samples()),
            capture_output=True, check=True, cwd=root,
            env={
                **os.environ, "PYTHONHASHSEED": seed,
                "PYTHONPATH": os.pathsep.join(
                    [root, os.path.dirname(os.path.dirname(repro.__file__))]
                ),
            },
        )
        report = json.loads(child.stdout)
        assert report["str_hash"] != hash("tor-7")  # the seeds do differ
        assert report["mismatches"] == []
        assert report["checked"] == sum(len(v) for v in samples().values())


#: Each carried-name class's name, from its fields alone.
NAME_FORMULA = {
    HostId: lambda v: f"host-{v.index}",
    RnicId: lambda v: f"host-{v.host.index}/rnic-{v.rail}",
    VfId: lambda v: (
        f"host-{v.rnic.host.index}/rnic-{v.rnic.rail}/vf-{v.index}"
    ),
    TaskId: lambda v: f"task-{v.index}",
    ContainerId: lambda v: f"task-{v.task.index}/node-{v.rank}",
    EndpointId: lambda v: (
        f"task-{v.container.task.index}/node-{v.container.rank}"
        f"/ep-{v.slot}"
    ),
    FlowKey: lambda v: f"vni={v.vni},dst={v.dst_ip}",
    # No name of its own: its carried name is its repr.
    ProbePair: lambda v: f"ProbePair(src={v.src!r}, dst={v.dst!r})",
}


def carried_classes():
    """The name of every class ``src`` decorates with ``carries_hash``."""
    root = Path(repro.__file__).parent
    return sorted(
        name for path in root.rglob("*.py")
        for name in re.findall(
            r"^@carries_hash\nclass (\w+)", path.read_text(), re.M
        )
    )


def formula_of(value):
    return NAME_FORMULA[type(value)](value)


@pytest.fixture(scope="module")
def ids():
    """Identifiers as a run builds them: a scenario's, per class, then
    the endpoints (and their containers and tasks) a recording's text
    parses back into."""
    scenario = build_scenario(
        num_containers=4, gpus_per_container=4, pp=2, seed=5,
        hosts_per_segment=2,
    )
    overlay = scenario.cluster.overlay
    ids = {cls: [] for cls in NAME_FORMULA}
    ids[ProbePair] = scenario.hunter.controller.ping_list_of(
        scenario.task.id
    ).active_pairs()[::7]
    for endpoint in scenario.task.endpoints():
        record = overlay.record_of(endpoint)
        for value in (
            endpoint, endpoint.container, endpoint.container.task,
            record.vf, record.vf.rnic, record.host, record.key,
        ):
            ids[type(value)].append(value)
    for endpoint in scenario.task.endpoints()[::3]:
        parsed = parse_endpoint(formula_of(endpoint))
        ids[EndpointId].append(parsed)
        ids[ContainerId].append(parsed.container)
        ids[TaskId].append(parsed.container.task)
    return ids


class TestCarriedName:
    """An identifier carries its name as it carries its hash: the
    first ``str()`` stores it and every later one reads it, while
    everything the dataclass generates still sees only the fields."""

    def test_every_carried_class_is_covered(self):
        assert carried_classes() == sorted(
            cls.__name__ for cls in NAME_FORMULA
        )

    @pytest.mark.parametrize(
        "cls", list(NAME_FORMULA), ids=lambda cls: cls.__name__
    )
    def test_a_carried_name_is_the_field_formula(self, ids, cls):
        values = ids[cls]
        assert len(values) >= 2
        for value in values:
            name = str(value)
            assert name == formula_of(value)
            assert str(value) is name  # read, not composed again
            assert f"{value}" == name

    @pytest.mark.parametrize(
        "cls", list(NAME_FORMULA), ids=lambda cls: cls.__name__
    )
    def test_copies_rebuild_from_fields(self, ids, cls):
        for value in ids[cls]:
            name = str(value)
            data = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
            assert b"_name" not in data
            for twin in (
                pickle.loads(data), copy.copy(value), copy.deepcopy(value)
            ):
                assert str(twin) == name
                assert hash(twin) == hash(value)

    @pytest.mark.parametrize(
        "cls", list(NAME_FORMULA), ids=lambda cls: cls.__name__
    )
    def test_the_name_is_no_field(self, ids, cls):
        for value in ids[cls]:
            str(value)
            names = [f.name for f in dataclasses.fields(value)]
            assert "_name" not in names
            assert "_name" not in json.dumps(
                dataclasses.asdict(value), default=str
            )
            assert "_name" not in repr(value)
            assert repr(value) == repr(copy.deepcopy(value))

    @pytest.mark.parametrize(
        "cls", list(NAME_FORMULA), ids=lambda cls: cls.__name__
    )
    def test_named_and_never_named_compare_alike(self, ids, cls):
        values = ids[cls]
        for value in values:
            str(value)
        # Rebuilt from fields, nested identifiers included: no name yet.
        twins = [copy.deepcopy(value) for value in values]
        assert not any(hasattr(twin, "_name") for twin in twins)
        for value, twin in zip(values, twins):
            assert value == twin and twin == value
            assert not value < twin and value <= twin
            assert hash(value) == hash(twin)
            for other, other_twin in zip(values, twins):
                assert (value < other) == (twin < other_twin)
                assert (value < other_twin) == (twin < other)
                assert (value == other_twin) == (value == other)
        assert sorted(values) == sorted(twins)
        assert set(values) == set(twins)
        assert not any(hasattr(twin, "_name") for twin in twins)


#: Unpickles :func:`samples` from stdin and compares every value's hash
#: with the hash of the same value built in this interpreter.
_CHILD = """
import json, pickle, sys
from tests.cluster.test_identifiers import samples
shipped = pickle.load(sys.stdin.buffer)
fresh = samples()
mismatches = [
    repr(a) for cls in fresh for a, b in zip(shipped[cls], fresh[cls])
    if a != b or hash(a) != hash(b)
]
print(json.dumps({
    "str_hash": hash("tor-7"), "mismatches": mismatches,
    "checked": sum(len(v) for v in shipped.values()),
}))
"""
