"""Phased ping-list generation (§5.1 of the paper).

SkeletonHunter builds its probing matrix in three phases:

1. **Preload** — at task submission, before any container exists, drop
   every cross-rail pair from the full endpoint mesh.  Rail-optimized
   topologies plus NCCL's cross-rail-to-NVLink conversion guarantee
   training traffic stays in-rail, so this alone cuts the list by the
   rail count (8x for standard hosts).
2. **Initialization** — activate pairs *incrementally* in the data plane:
   a pair only becomes probe-able once its destination container has
   registered.  This kills the false positives that controller-driven
   activation would raise while containers are still starting up.
3. **Runtime** — once traffic skeletons are inferred, restrict the list
   to pairs the training traffic actually traverses (>95% further cut).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import comb
from typing import (
    AbstractSet, Callable, Dict, FrozenSet, Iterable, List, Set, Tuple,
)

from repro.cluster.identifiers import ContainerId, EndpointId, carries_hash

__all__ = ["PingList", "PingListPhase", "ProbePair", "pair_order"]

_set = object.__setattr__


@carries_hash
class ProbePair:
    """One probing assignment: ``src`` pings ``dst``.

    Pairs are stored in canonical (sorted) order so that each unordered
    endpoint pair contributes exactly one probing task per round.

    Carries its hash, ``hash((src, dst))``
    (:func:`~repro.cluster.identifiers.carries_hash`): every round keys
    each probe's pair into the detector's rows and the tenants' probed
    sets, and the generated ``__hash__`` would re-hash both endpoints
    each time.
    """

    __slots__ = ("src", "dst", "_hash", "_name")
    src: EndpointId
    dst: EndpointId

    def __init__(self, src: EndpointId, dst: EndpointId) -> None:
        _set(self, "src", src)
        _set(self, "dst", dst)
        _set(self, "_hash", hash((src, dst)))

    @staticmethod
    def canonical(a: EndpointId, b: EndpointId) -> "ProbePair":
        """The canonical pair for two endpoints (order-insensitive)."""
        if a == b:
            raise ValueError("a probe pair needs two distinct endpoints")
        first, second = sorted((a, b))
        return ProbePair(first, second)

    def involves(self, endpoint: EndpointId) -> bool:
        """Whether ``endpoint`` is one side of the pair."""
        return endpoint in (self.src, self.dst)

    def other(self, endpoint: EndpointId) -> EndpointId:
        """The peer of ``endpoint`` in this pair."""
        if endpoint == self.src:
            return self.dst
        if endpoint == self.dst:
            return self.src
        raise ValueError(f"{endpoint} is not part of {self}")


def pair_order(pair: ProbePair) -> Tuple[int, int, int, int, int, int]:
    """The sort key of a pair: the task index, rank and slot of its
    source, then of its destination.  It orders pairs exactly as their
    generated comparisons do, field by field, without calling them."""
    src, dst = pair.src, pair.dst
    return (
        src.container.task.index, src.container.rank, src.slot,
        dst.container.task.index, dst.container.rank, dst.slot,
    )


class PingListPhase:
    """Which generation phase produced a ping list."""

    FULL_MESH = "full_mesh"
    BASIC = "basic"          # preload: same-rail pruning
    SKELETON = "skeleton"    # runtime: traffic-skeleton pruning


@dataclass
class PingList:
    """A set of probe pairs plus data-plane activation state.

    ``pairs`` is frozen at construction (a different pair set is a new
    list), so the by-source index cannot go stale; only the activation
    state changes in place.
    """

    pairs: AbstractSet[ProbePair] = frozenset()
    phase: str = PingListPhase.BASIC
    _registered: Set[ContainerId] = field(default_factory=set)
    #: Source container -> its canonical-source pairs, sorted; built on
    #: the first by-source query, so a list nobody probes from is free.
    _by_source: Dict[ContainerId, List[ProbePair]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    #: Source container -> its *active* row, as :meth:`active_pairs_from`
    #: last answered it; emptied whenever the registered set changes.
    _active: Dict[ContainerId, List[ProbePair]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    #: The preload list is kept as its rails (rail -> endpoints and
    #: container -> {endpoint: rail}, in endpoint order), answers from
    #: them, and builds ``pairs`` only for a reader of the whole set.
    _rails: Dict[int, List[EndpointId]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _rail_of: Dict[ContainerId, Dict[EndpointId, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def full_mesh(cls, endpoints: Iterable[EndpointId]) -> "PingList":
        """Every cross-container endpoint pair (the Pingmesh baseline)."""
        eps = sorted(endpoints)
        pairs = {
            ProbePair(eps[i], eps[j])
            for i in range(len(eps))
            for j in range(i + 1, len(eps))
            if eps[i].container != eps[j].container
        }
        return cls(pairs=pairs, phase=PingListPhase.FULL_MESH)

    @classmethod
    def basic(
        cls,
        endpoints: Iterable[EndpointId],
        rail_of: Callable[[EndpointId], int],
    ) -> "PingList":
        """The preload list: cross-container pairs on the same rail."""
        ping_list = cls(phase=PingListPhase.BASIC)
        for endpoint in sorted(set(endpoints)):
            rail = rail_of(endpoint)
            ping_list._rails.setdefault(rail, []).append(endpoint)
            ping_list._rail_of.setdefault(
                endpoint.container, {}
            )[endpoint] = rail
        del ping_list.__dict__["pairs"]  # built from the rails if read
        return ping_list

    @classmethod
    def from_edges(
        cls, edges: Iterable[FrozenSet[EndpointId]]
    ) -> "PingList":
        """The runtime list: exactly the inferred skeleton's edges."""
        pairs = set()
        for edge in edges:
            members = sorted(edge)
            if len(members) != 2:
                raise ValueError(f"skeleton edge must have two endpoints, "
                                 f"got {len(members)}")
            pairs.add(ProbePair(members[0], members[1]))
        return cls(pairs=pairs, phase=PingListPhase.SKELETON)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _peers(self, endpoint: EndpointId) -> List[EndpointId]:
        """Whom the rails pair ``endpoint`` with, sorted."""
        rail = self._rail_of.get(endpoint.container, {}).get(endpoint)
        return [] if rail is None else [
            peer for peer in self._rails[rail]
            if peer.container != endpoint.container
        ]

    def _row(self, container: ContainerId) -> List[ProbePair]:
        """The rails' pairs with a source in ``container``, sorted."""
        return [
            ProbePair(src, dst)
            for src in self._rail_of.get(container, ())
            for dst in self._peers(src) if src < dst
        ]

    def __len__(self) -> int:
        if not self._rails:
            return len(self.pairs)
        # Per rail: every endpoint pair, less those inside one container.
        return sum(
            comb(len(rail), 2) - sum(
                comb(count, 2)
                for count in Counter(e.container for e in rail).values()
            )
            for rail in self._rails.values()
        )

    def __contains__(self, pair: ProbePair) -> bool:
        if not self._rails:
            return pair in self.pairs
        slots = self._rail_of.get(pair.src.container, {})
        return (
            pair.src in slots
            and pair.src < pair.dst
            and pair.src.container != pair.dst.container
            and slots[pair.src] == self._rail_of.get(
                pair.dst.container, {}
            ).get(pair.dst)
        )

    def restrict_to(
        self, edges: Iterable[FrozenSet[EndpointId]]
    ) -> "PingList":
        """Keep only pairs whose endpoints form an edge in ``edges``."""
        wanted = {
            ProbePair.canonical(*sorted(edge)) for edge in edges
        }
        return PingList(
            pairs={pair for pair in wanted if pair in self},
            phase=PingListPhase.SKELETON,
            _registered=set(self._registered),
        )

    def pairs_touching(
        self, endpoints: Iterable[EndpointId]
    ) -> Set[ProbePair]:
        """Every pair with a side in ``endpoints``; the preload list
        walks only those endpoints' rails."""
        wanted = set(endpoints)
        if not self._rails:
            return {
                pair for pair in self.pairs
                if pair.src in wanted or pair.dst in wanted
            }
        return {
            ProbePair.canonical(endpoint, peer)
            for endpoint in wanted for peer in self._peers(endpoint)
        }

    # ------------------------------------------------------------------
    # Incremental activation (initialization phase)
    # ------------------------------------------------------------------

    def register(self, container: ContainerId) -> None:
        """Mark a container as RUNNING and probe-able."""
        self._registered.add(container)
        self._active.clear()

    def deregister(self, container: ContainerId) -> None:
        """Remove a container (terminated or crashed *gracefully*).

        Note: an ungraceful crash does NOT deregister — its peers keep
        probing it and correctly observe unconnectivity.
        """
        self._registered.discard(container)
        self._active.clear()

    def is_active(self, pair: ProbePair) -> bool:
        """Whether both sides of ``pair`` have registered."""
        return (
            pair.src.container in self._registered
            and pair.dst.container in self._registered
        )

    def active_pairs(self) -> List[ProbePair]:
        """All pairs whose endpoints have both registered, sorted: the
        registered containers' by-source rows, in container order —
        never the whole pair set, which a preload list has not built."""
        return [
            pair
            for container in sorted(self._registered)
            for pair in self.active_pairs_from(container)
        ]

    def active_pairs_from(self, container: ContainerId) -> List[ProbePair]:
        """:meth:`active_pairs` narrowed to one source container, same
        order, at the cost of that container's pairs, not the list's.

        The answer is kept until a container registers or deregisters,
        so a steady round reads every agent's share without filtering
        it again — and gets the *same* list each round (treat it as
        read-only), which is what lets the fabric and the analyzer
        recognise a round's pair sequence by the identity of its pairs.
        """
        active = self._active.get(container)
        if active is None:
            active = self._active[container] = self._filter_row(container)
        return active

    def _filter_row(self, container: ContainerId) -> List[ProbePair]:
        if container not in self._registered:
            return []
        if self._rails and container not in self._by_source:
            self._by_source[container] = self._row(container)
        elif not self._by_source:
            for pair in sorted(self.pairs, key=pair_order):
                self._by_source.setdefault(
                    pair.src.container, []
                ).append(pair)
        return [
            pair for pair in self._by_source.get(container, ())
            if pair.dst.container in self._registered
        ]

    def activation_ratio(self) -> float:
        """Fraction of pairs currently active."""
        total = len(self)
        return len(self.active_pairs()) / total if total else 0.0


def _read_pairs(self: PingList) -> FrozenSet[ProbePair]:
    if "pairs" not in self.__dict__:
        self.pairs = {p for c in self._rail_of for p in self._row(c)}
    return self.__dict__["pairs"]


def _freeze_pairs(self: PingList, pairs: AbstractSet[ProbePair]) -> None:
    self.__dict__["pairs"] = frozenset(pairs)


# A property under the dataclass field: ``pairs`` stays a constructor
# argument, compared by ``==`` and carried by ``dataclasses.replace``.
PingList.pairs = property(  # type: ignore[assignment]
    _read_pairs, _freeze_pairs
)
