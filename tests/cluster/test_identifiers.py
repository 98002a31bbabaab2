"""Tests for typed cluster identifiers."""

import dataclasses
import json
import os
import pickle
import subprocess
import sys

import pytest

import repro
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
)


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


def samples():
    """Two or more values of every identifier class (and of the flow
    table's match key), with a few orderings to compare."""
    task = [TaskId(0), TaskId(3)]
    host = [HostId(0), HostId(7)]
    rnic = [RnicId(host[0], 1), RnicId(host[1], 0), RnicId(host[0], 0)]
    container = [ContainerId(task[0], 2), ContainerId(task[1], 0)]
    return {
        HostId: host,
        TaskId: task,
        RnicId: rnic,
        VfId: [VfId(rnic[0], 5), VfId(rnic[1], 0)],
        ContainerId: container,
        EndpointId: [
            EndpointId(container[0], 1), EndpointId(container[1], 3),
            EndpointId(container[0], 0),
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
