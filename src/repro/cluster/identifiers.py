"""Typed identifiers for cluster entities.

Every physical or virtual component in the simulated cloud is addressed by
a small frozen dataclass rather than a bare string, so mixing up a host
with an RNIC or an endpoint is a type error instead of a silent bug.  All
identifiers are hashable and ordered, which lets them serve as dictionary
keys, set members, and sort keys in the localization pipeline.

The int-only identifiers key every dict and set on the probing path, and
the dataclass-generated ``__hash__`` re-hashes the whole nested field
tuple on every lookup (an :class:`EndpointId` is three Python calls
deep).  They carry their hash instead (:func:`carries_hash`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Tuple, TypeVar

__all__ = [
    "ContainerId",
    "EndpointId",
    "HostId",
    "LinkId",
    "RnicId",
    "SwitchId",
    "TaskId",
    "VfId",
    "carries_hash",
]

_T = TypeVar("_T")
_set = object.__setattr__


def _carried_hash(self) -> int:
    return self._hash


def _rebuild(self) -> Tuple[type, tuple]:
    return type(self), tuple(getattr(self, f.name) for f in fields(self))


def carries_hash(cls: type[_T]) -> type[_T]:
    """Make ``cls`` a frozen, ordered dataclass that carries its hash.

    ``cls`` declares ``__slots__`` (its fields plus ``_hash``) and an
    ``__init__`` that stores the fields and ``_hash = hash(<field
    tuple>)`` — the value the generated ``__hash__`` would compute on
    every call, so set iteration order, and every digest built on it,
    is unchanged.  Equality, ordering, ``repr``, ``fields`` and
    ``asdict`` are the generated ones.  An instance pickles as its
    fields, so the hash is always computed by the interpreter that
    uses it: a ``str`` field's hash differs between processes.
    """
    cls = dataclass(frozen=True, order=True, init=False)(cls)
    cls.__hash__ = _carried_hash  # type: ignore[assignment]
    cls.__reduce__ = _rebuild  # type: ignore[assignment]
    return cls


@carries_hash
class HostId:
    """A physical host, e.g. ``HostId(12)``."""

    __slots__ = ("index", "_hash")
    index: int

    def __init__(self, index: int) -> None:
        _set(self, "index", index)
        _set(self, "_hash", hash((index,)))

    def __str__(self) -> str:
        return f"host-{self.index}"


@carries_hash
class RnicId:
    """An RDMA NIC identified by its host and rail index (0..R-1).

    In a rail-optimized topology the rail index of an RNIC decides which
    top-of-rack switch it attaches to (§3.2 of the paper, Figure 10).
    """

    __slots__ = ("host", "rail", "_hash")
    host: HostId
    rail: int

    def __init__(self, host: HostId, rail: int) -> None:
        _set(self, "host", host)
        _set(self, "rail", rail)
        _set(self, "_hash", hash((host, rail)))

    def __str__(self) -> str:
        return f"{self.host}/rnic-{self.rail}"


@carries_hash
class VfId:
    """An SR-IOV virtual function carved out of a physical RNIC."""

    __slots__ = ("rnic", "index", "_hash")
    rnic: RnicId
    index: int

    def __init__(self, rnic: RnicId, index: int) -> None:
        _set(self, "rnic", rnic)
        _set(self, "index", index)
        _set(self, "_hash", hash((rnic, index)))

    def __str__(self) -> str:
        return f"{self.rnic}/vf-{self.index}"


@carries_hash
class TaskId:
    """A training task (one tenant job consisting of many containers)."""

    __slots__ = ("index", "_hash")
    index: int

    def __init__(self, index: int) -> None:
        _set(self, "index", index)
        _set(self, "_hash", hash((index,)))

    def __str__(self) -> str:
        return f"task-{self.index}"


@carries_hash
class ContainerId:
    """A training container: the ``rank``-th node of a task."""

    __slots__ = ("task", "rank", "_hash")
    task: TaskId
    rank: int

    def __init__(self, task: TaskId, rank: int) -> None:
        _set(self, "task", task)
        _set(self, "rank", rank)
        _set(self, "_hash", hash((task, rank)))

    def __str__(self) -> str:
        return f"{self.task}/node-{self.rank}"


@carries_hash
class EndpointId:
    """A (container, local RNIC slot) pair — the unit of probing.

    The paper terms the bound pair of a container and an RNIC an
    *endpoint* (§1).  ``slot`` is the container-local index of the bound
    RNIC, which equals the rail index on hosts where containers bind one
    RNIC per rail.
    """

    __slots__ = ("container", "slot", "_hash")
    container: ContainerId
    slot: int

    def __init__(self, container: ContainerId, slot: int) -> None:
        _set(self, "container", container)
        _set(self, "slot", slot)
        _set(self, "_hash", hash((container, slot)))

    def __str__(self) -> str:
        return f"{self.container}/ep-{self.slot}"


@dataclass(frozen=True, order=True)
class SwitchId:
    """A physical switch: ``tier`` is 'tor' or 'spine'."""

    tier: str
    index: int

    def __str__(self) -> str:
        return f"{self.tier}-{self.index}"


@dataclass(frozen=True, order=True)
class LinkId:
    """An undirected physical link between two device names.

    Endpoint names are stored in sorted order so that
    ``LinkId.between(a, b) == LinkId.between(b, a)``.
    """

    a: str
    b: str

    @staticmethod
    def between(first: object, second: object) -> "LinkId":
        """Create a canonical link id from two device identifiers."""
        x, y = sorted((str(first), str(second)))
        return LinkId(x, y)

    def touches(self, device: object) -> bool:
        """Whether ``device`` is one of the link's endpoints."""
        name = str(device)
        return name in (self.a, self.b)

    def other(self, device: object) -> str:
        """The endpoint name opposite ``device``."""
        name = str(device)
        if name == self.a:
            return self.b
        if name == self.b:
            return self.a
        raise ValueError(f"{name} is not an endpoint of {self}")

    def __str__(self) -> str:
        return f"{self.a}<->{self.b}"
