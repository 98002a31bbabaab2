"""The data-plane fabric: what actually happens to a probe packet.

A probe from endpoint A to endpoint B goes through:

1. the **overlay**: A's veth → A's host OVS (flow lookup, slow-path
   install on first use) → A's RNIC VTEP (VXLAN encap, hardware or
   software path) → ... → B's host OVS → B's veth;
2. the **underlay**: the ECMP-selected physical path between A's and B's
   RNICs (RNIC → ToR [→ spine → ToR] → RNIC).

Faults registered with the :class:`~repro.network.faults.FaultInjector`
perturb either layer; the latency model turns the healthy path shape plus
fault/congestion extras into a sampled RTT.  The fabric is the single
place where overlay state, underlay topology, faults, and noise combine —
every probing strategy (SkeletonHunter, full-mesh Pingmesh, deTector)
sends its probes through this same function.

Two performance layers keep skeleton-scale monitoring cheap (§6 of the
paper argues probing must stay invisible next to training traffic; the
simulator's per-probe cost has to follow suit):

* a :class:`FlowResolutionCache` memoizes the *deterministic* half of a
  probe — the overlay trace, the ECMP path pick, the faults that could
  touch the resolution, and the overlay component-health effects —
  valid while what it read is unchanged — its own match key in the flow
  tables its walk consulted (a neighbour's first-use install on the
  same host stales nothing), the health of the components along its
  chain, and no fault that meets it came or went — and told when it
  changes, so a warm lookup re-reads none of it.  The ECMP mode is
  fixed when the fabric is built, so a path moves only when its pair
  is re-walked, and the localizer reads the routes the probes resolved
  to (:meth:`FlowResolutionCache.paths_of`);
* :meth:`DataPlaneFabric.send_probe_batch` answers a whole probing
  round as one :class:`~repro.network.packet.ProbeBatch` — columns, not
  one :class:`~repro.network.packet.ProbeResult` per probe.  Every
  probe's uniforms are keyed by the probe itself
  (:class:`~repro.network.draws.PairwiseDrawSource` over the registry
  seed), so a probe's row is the same in any batch, in any order, and
  :meth:`DataPlaneFabric.send_probe` is a batch of one.  The batch
  first resolves (:meth:`FlowResolutionCache.resolve_all`), then
  decides every fate from the uniforms: a round whose pair sequence is
  the one the last round resolved, with no row marked stale since, is
  all hits by construction and costs no per-probe lookup; anything else
  resolves in one pass over the rows, in order, as one probe after
  another would.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.cluster.flowtable import FlowKey, FlowTable
from repro.cluster.identifiers import (
    EndpointId,
    HostId,
    LinkId,
    RnicId,
    SwitchId,
)
from repro.cluster.orchestrator import Cluster
from repro.cluster.overlay import ComponentHealth, OverlayTrace
from repro.cluster.topology import UnderlayPath
from repro.network.draws import PairwiseDrawSource, pair_key
from repro.network.faults import Effects, Fault, FaultInjector
from repro.network.latency import LatencyModel, TransientCongestion
from repro.network.packet import (
    ProbeBatch,
    ProbeResult,
    endpoints_of,
    flow_hash,
)
from repro.sim.metrics import MetricRegistry
from repro.sim.rng import RngRegistry

__all__ = ["DataPlaneFabric", "FlowResolutionCache"]

#: The columns of a probe's keyed uniform block: loss gate, base-RTT
#: noise, software-path noise, congestion gate, congestion magnitude,
#: and the per-packet path pick under spraying ECMP.  A column does not
#: depend on which others are drawn, so a batch draws only those it
#: reads.
_LOSS, _RTT, _SOFTWARE, _SPIKE_GATE, _SPIKE_SIZE, _PICK = range(6)


class _Route(NamedTuple):
    """One underlay path a probe may take, with what it meets there:
    the path's relevant-fault tuple, pre-resolved so a per-packet pick
    costs one uniform and one tuple index.  Immutable: a fault-free
    route is one object shared by every resolution riding its path."""

    path: UnderlayPath
    faults: Tuple[object, ...]
    hops: int
    switches: int


def _candidate_paths(
    topology, src_rnic: RnicId, dst_rnic: RnicId, fhash: int,
    spraying: bool,
) -> List[UnderlayPath]:
    """Every path a probe between two RNICs may take — where a pair's
    route is decided.  Static ECMP pins the flow to its hash's pick;
    spraying sends each packet down any equal-cost candidate."""
    if spraying:
        return topology.ecmp_paths(src_rnic, dst_rnic)
    return [topology.pick_path(src_rnic, dst_rnic, fhash)]


def _placement_paths(
    cluster: Cluster, src: EndpointId, dst: EndpointId, spraying: bool
) -> List[UnderlayPath]:
    """Every path a (src, dst) probe may take as the pair is placed:
    between the RNICs ``overlay.rnic_of`` names, which a walk may not
    use (a same-host pair is delivered without leaving its source
    RNIC); none unless both endpoints are attached to the overlay."""
    overlay = cluster.overlay
    if not overlay.is_registered(src) or not overlay.is_registered(dst):
        return []
    return _candidate_paths(
        cluster.topology, overlay.rnic_of(src), overlay.rnic_of(dst),
        flow_hash(src, dst), spraying,
    )


#: What a healthy overlay chain adds to a probe: nothing.  One object,
#: shared by every resolution through a healthy chain.
_BENIGN = Effects()


@dataclass(slots=True)
class _Resolution:
    """The deterministic (RNG-free, time-free) half of one probe.

    Holds only what is its pair's own; its hops, routes, paths and a
    benign :attr:`overlay_fx` are objects shared with every other
    resolution that has them."""

    trace: OverlayTrace
    fhash: int
    reached: bool
    overlay_reason: str = ""
    #: The path *distribution* of a reached probe, equal mass each: the
    #: one pinned pick under static ECMP, every candidate under
    #: spraying.
    routes: Tuple[_Route, ...] = ()
    # Merged component-health effects along the overlay chain.
    overlay_fx: Effects = _BENIGN
    #: Reached, healthy overlay components, no fault on any candidate
    #: route: the probe is delivered with nothing added, so its fate
    #: needs no :class:`Effects` evaluated.
    plain: bool = False
    #: The reverse flow's key its echo reply installed, and the
    #: destination's record, whose OVS and offload tables hold it.
    reverse: Optional[FlowKey] = None
    replier: object = None
    #: The pair's draw key (:func:`~repro.network.draws.pair_key`),
    #: computed by the pair's first walk and kept by every re-walk.
    draw_key: int = 0
    #: Validity, kept by :class:`FlowResolutionCache`: the pair it is
    #: cached under; the miss cause a change to what a reached entry
    #: read marked it with (``None``: valid); the whole-overlay stamp an
    #: unreached entry is valid under; and the number of the last batch
    #: vector it answered a row of (a number, so no entry keeps an old
    #: vector alive).
    pair: Optional[Tuple[EndpointId, EndpointId]] = None
    stale: Optional[str] = None
    seen: int = 0
    batch: int = 0
    #: How many registrations the cache's index holds for it.
    indexed: int = 0

    @property
    def healths(self) -> Tuple[ComponentHealth, ...]:
        """The health objects of a reached chain: the six components
        whose flags merge into its effects (source veth, OVS and VTEP,
        destination VTEP, OVS and veth), then any a longer chain
        crossed between them."""
        walked = self.trace.healths
        if not walked:
            return ()
        return walked[:3] + (walked[-2], walked[-3], walked[-1]) + (
            walked[3:-3]
        )


@dataclass
class _RoundVector:
    """One batch's pair sequence with what it resolved to, row by row.

    Every batch is answered from one of these; the cache keeps the last,
    so the same sequence probed again while no row has been marked stale
    (and, if a row is unreached, nothing anywhere changed) needs no
    per-probe lookup.  Routes are ragged: row *i*'s candidates are
    ``flat_hops[offsets[i]:offsets[i] + nroutes[i]]``.
    """

    pairs: List[object]
    endpoints: List[Tuple[EndpointId, EndpointId]]
    resolutions: List[_Resolution]
    nroutes: np.ndarray
    offsets: np.ndarray
    flat_hops: np.ndarray
    flat_switches: np.ndarray
    software: np.ndarray
    #: Rows whose fate is not "delivered, nothing added": unreached, or
    #: with a fault on a candidate route, or with unhealthy overlay
    #: components.  Only these evaluate :class:`Effects`.
    special: List[int]
    #: The rows' draw keys, read from their resolutions.
    keys: np.ndarray
    #: Whether a row has been marked stale since it was resolved; and
    #: the whole-overlay stamp the unreached rows are valid under
    #: (``None``: every row is reached).
    marked: bool = False
    seen: Optional[int] = None
    #: Built by the first bulk answer: each flow rule the rows' walks
    #: traversed with its crossing count.
    rule_hits: Optional[List[Tuple[object, int]]] = None


def _round_vector(
    pairs: List[object],
    endpoints: List[Tuple[EndpointId, EndpointId]],
    resolutions: List[_Resolution],
) -> _RoundVector:
    nroutes = np.fromiter(
        (len(res.routes) for res in resolutions), np.int64, len(pairs)
    )
    routes = [route for res in resolutions for route in res.routes]
    return _RoundVector(
        pairs=pairs, endpoints=endpoints,
        resolutions=resolutions, nroutes=nroutes,
        offsets=np.cumsum(nroutes) - nroutes,
        flat_hops=np.fromiter(
            (route.hops for route in routes), np.int64, len(routes)
        ),
        flat_switches=np.fromiter(
            (route.switches for route in routes), np.int64, len(routes)
        ),
        software=np.fromiter(
            (res.trace.software_path for res in resolutions), bool,
            len(pairs),
        ),
        special=[
            i for i, res in enumerate(resolutions) if not res.plain
        ],
        keys=np.array(
            [res.draw_key for res in resolutions], dtype=np.uint64
        ),
    )


class FlowResolutionCache:
    """Memoizes per-(src, dst) probe resolutions.

    A resolution is valid while what it read is unchanged, and it is
    *told* when that changes.  What a *reached* resolution read: (1)
    its own match keys — the forward :attr:`OverlayTrace.key` in every
    table of :attr:`OverlayTrace.tables` (the OVS table of each visited
    host, the offload table of each traversed RNIC) and the reverse key
    its echo reply installs in the destination host's OVS and offload
    tables — and each of those tables as a whole; a flow table is an
    exact-match dict, so another flow's first-use install on the same
    host changes none of them, while container attach and detach, which
    touch the whole table, change all; (2) the :class:`ComponentHealth`
    of every component along its chain.  The overlay reports each change
    by what it changed (:meth:`OverlayNetwork.add_watcher`).  A reached
    entry registers on each ``(table, key)`` it read, on its endpoint
    RNICs and on the interned paths of its routes; a change to a key
    marks exactly the entries registered on it stale, a change to a
    whole table every entry registered in that table, consuming those
    registrations; a health flip marks the entries holding that health
    object.  (3) A fault injected or cleared marks the entries it
    :meth:`Fault.meets` — the cache observes the injector and finds
    them by lookup: a link or switch target (and a link's victim links)
    names the interned paths through it
    (:meth:`~repro.cluster.topology.RailOptimizedTopology.paths_meeting`),
    an RNIC or host target its RNICs, and those the entries registered
    on them.  So a fault landing costs the entries it touches (and the
    paths through its target), Figure-18-style faults (a table mutating
    under a warm cache) still surface on the next probe, and a warm
    lookup is a dict lookup and a flag test however much churns
    elsewhere.  An *unreached* resolution (table miss, loop, unknown
    encap target, unattached endpoint) registers nothing: what would
    make it reachable is in no table its walk consulted, so it is valid
    under the whole-overlay stamp alone (:attr:`OverlayNetwork.epoch`
    and :attr:`FaultInjector.epoch`).  The ECMP mode every entry is
    routed under is fixed at construction.

    A batch resolves in one pass (:meth:`_resolve_rows`; a single pair
    is a batch of one): each row is looked up and each miss walked in
    order, so a walk's installs and the marks they make land where they
    would one pair at a time; the reached misses register together at
    the end.  That is exact because no install of the batch changes
    what a reached miss read: a reached chain is its own first-hop rule
    (which its own install just made canonical) and its destination's
    DELIVER rule (which a first-use install never replaces), a reverse
    rule is canonical once its echo installed it, and an offload copy
    changes only with its OVS rule.  Anything outside the pass that
    changes mid-batch registers what is pending first.

    Every recompute is counted by cause on :attr:`metrics`:
    ``cache.miss.cold`` (no entry yet), ``.table_changed`` (a key or
    table the walk read) or ``.epoch_changed`` (component health, a
    fault that meets the entry, or anything at all for an unreached
    one) — ``epoch_changed`` when both kinds of mark landed.
    """

    def __init__(
        self,
        cluster: Cluster,
        injector: FaultInjector,
        enabled: bool = True,
        ecmp_mode: str = "static",
    ) -> None:
        if ecmp_mode not in ("static", "spray"):
            raise ValueError(f"unknown ECMP mode {ecmp_mode!r}")
        self._cluster = cluster
        self._injector = injector
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        #: Where miss causes are counted; the fabric points this at its
        #: own registry.
        self.metrics = MetricRegistry()
        #: The ECMP mode every resolution is routed under ("static" or
        #: "spray"), fixed for the cache's life.
        self.ecmp_mode = ecmp_mode
        self._entries: Dict[
            Tuple[EndpointId, EndpointId], _Resolution
        ] = {}
        #: What the last batch resolved to (:meth:`resolve_all`), and
        #: how many batch vectors have been built.
        self._vector: Optional[_RoundVector] = None
        self._batches = 0
        #: Each flow table a reached entry read -> each key read in it
        #: -> the entries registered on it (one entry bare, several as a
        #: list: most keys are read by one pair, and a list per key is
        #: an object the collector walks); the entries that read a table
        #: at all are those registered in it.  A replaced entry's
        #: registrations linger until a mark consumes them or a sweep
        #: drops them.
        self._watch: Dict[FlowTable, Dict[FlowKey, object]] = (
            defaultdict(dict)
        )
        #: The entries registered on each endpoint RNIC, and on each
        #: interned path (by identity) of their routes: where a fault
        #: finds the entries it meets.
        self._by_rnic: Dict[RnicId, object] = {}
        self._by_path: Dict[int, object] = {}
        #: The routes of fault-free candidate sets, by the identities of
        #: their (interned, so kept alive here) paths: one tuple per
        #: candidate set, shared by every resolution riding it.
        self._plain_routes: Dict[Tuple[int, ...], Tuple[_Route, ...]] = {}
        #: Registrations in the index, and how many of them replaced
        #: entries held when they were replaced (an upper bound on the
        #: leftovers: marks consume some).
        self._indexed = 0
        self._replaced = 0
        #: While a pass is open: its reached misses not yet registered,
        #: and whether a change comes from the pass's own walk.
        self._pending: Optional[List[_Resolution]] = None
        self._walking = False
        injector.add_observer(self._on_fault)
        cluster.overlay.add_watcher(self._on_change)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups served from the cache (0 before any)."""
        return self.hits / max(self.hits + self.misses, 1)

    def _whole_stamp(self) -> int:
        """Unchanged means nothing anywhere changed: every overlay
        mutation and fault inject/clear moves a term, and every term
        only ever grows."""
        return self._cluster.overlay.epoch + self._injector.epoch

    def _live(self, entry: _Resolution) -> bool:
        """Whether ``entry`` is still its pair's cached entry."""
        return self._entries.get(entry.pair) is entry

    def _mark(self, entry: _Resolution, cause: str) -> None:
        """Mark ``entry`` stale with ``cause`` if it is still live — a
        replaced entry's leftover registration marks nothing.
        ``epoch_changed`` outranks ``table_changed``."""
        if not self._live(entry):
            return
        if entry.stale is None or cause == "epoch_changed":
            entry.stale = cause
        if entry.batch == self._batches and self._vector is not None:
            self._vector.marked = True

    def _on_change(self, source: object, key: Optional[FlowKey]) -> None:
        """The overlay changed ``source`` (a table, at ``key`` or as a
        whole, or a health object): mark the entries that read it.
        Health flags change only when a fault lands or clears, so a
        flip scans the entries, as a fault does; tables churn with every
        placement, so the entries that read one are indexed."""
        if self._pending is not None and not self._walking:
            # Something outside the open pass changed mid-batch: what
            # the pass resolved so far registers first.
            self._settle()
        if isinstance(source, ComponentHealth):
            for entry in self._entries.values():
                if source in entry.trace.healths:
                    self._mark(entry, "epoch_changed")
            return
        held = self._watch.get(source)
        if held is None:
            return
        if key is None:  # the whole table: every entry that read it
            registered = [
                entry for each in held.values()
                for entry in (each if type(each) is list else (each,))
            ]
            held.clear()
        else:
            registered = held.pop(key, None)
            if registered is None:
                return
            if type(registered) is not list:
                registered = [registered]
        self._indexed -= len(registered)
        for entry in registered:
            self._mark(entry, "table_changed")

    def _on_fault(self, action: str, fault: Fault, at: float) -> None:
        """A fault came or went: mark stale the reached entries it
        meets (their relevant-fault tuples change), found by lookup —
        the registrations on the paths through a link or switch target
        and its victim links, or on an RNIC target or a host target's
        RNICs (:meth:`Fault.meets`, indexed)."""
        if self._pending:
            self._settle()
        target = fault.target
        topology = self._cluster.topology
        if isinstance(target, (LinkId, SwitchId)):
            # Only a link target shows a (victim) face on its victims.
            victims = fault.victim_links if isinstance(target, LinkId) else ()
            index: Dict = self._by_path
            keys: List = [
                id(path) for part in (target, *victims)
                for path in topology.paths_meeting(part)
            ]
        elif isinstance(target, RnicId):
            index, keys = self._by_rnic, [target]
        elif isinstance(target, HostId):
            index, keys = self._by_rnic, topology.rnics_of(target)
        else:
            return  # a container meets no probe's route or endpoints
        for key in keys:
            held = index.get(key)
            if held is None:
                continue
            for entry in held if type(held) is list else (held,):
                if entry.stale != "epoch_changed":
                    self._mark(entry, "epoch_changed")

    def _register(self, entries: List[_Resolution]) -> None:
        """Index fresh reached entries, in one pass: under each
        ``(table, key)`` they read — each flow table the walk consulted
        at its forward key, the destination's OVS and offload tables at
        the reverse key its echo installed — their endpoint RNICs and
        the interned paths of their routes."""
        watch, by_rnic, by_path = self._watch, self._by_rnic, self._by_path
        indexed = 0
        for entry in entries:
            trace, reverse, replier = entry.trace, entry.reverse, entry.replier
            key, src_rnic, dst_rnic = trace.key, trace.src_rnic, trace.dst_rnic
            places = [(watch[table], key) for table in trace.tables]
            places += (
                (watch[replier.ovs], reverse),
                (watch[replier.offload], reverse),
                (by_rnic, src_rnic),
            )
            if dst_rnic != src_rnic:
                places.append((by_rnic, dst_rnic))
            places += [(by_path, id(route.path)) for route in entry.routes]
            for index, place in places:
                held = index.get(place)
                if held is None:
                    index[place] = entry
                elif type(held) is list:
                    held.append(entry)
                else:
                    index[place] = [held, entry]
            entry.indexed = len(places)
            indexed += len(places)
        self._indexed += indexed
        if self._replaced > self._indexed // 2:
            self._sweep()

    def _sweep(self) -> None:
        """Drop the registrations of replaced entries once they may be
        half the index, so it stays within twice what the live entries
        read (each sweep is paid for by the replacements before it)."""
        self._indexed = 0
        for index in (*self._watch.values(), self._by_rnic, self._by_path):
            for key, registered in list(index.items()):
                if type(registered) is not list:
                    registered = [registered]
                live = [entry for entry in registered if self._live(entry)]
                if live:
                    index[key] = live if len(live) > 1 else live[0]
                    self._indexed += len(live)
                else:
                    del index[key]
        self._replaced = 0

    def invalidate(self) -> None:
        """Drop every cached resolution (marks make this optional)."""
        self._entries.clear()
        self._vector = None
        self._watch.clear()
        self._by_rnic.clear()
        self._by_path.clear()
        self._indexed = self._replaced = 0

    def paths_of(self, pairs: Iterable[object]) -> List[List[UnderlayPath]]:
        """The underlay paths each pair's probes resolved to (§5.3: the
        per-host traceroute reveals each probe flow's ECMP choice, and
        a resolution *is* that choice): the routes of the pair's held
        reached entry, valid or marked — a fault or a health flip
        changes what a route meets, not where it goes, and only a
        re-walk, which replaces the entry, moves a path.  A pair with
        no reached entry gets its placement answer
        (:func:`_placement_paths`).  A read: it walks, installs,
        registers and counts nothing, and replays no rule hit."""
        entries, spraying = self._entries, self.ecmp_mode == "spray"
        answers = []
        for pair in pairs:
            src, dst = endpoints_of(pair)
            entry = entries.get((src, dst))
            answers.append(
                [route.path for route in entry.routes]
                if entry is not None and entry.reached else
                _placement_paths(self._cluster, src, dst, spraying)
            )
        return answers

    def resolve_all(self, pairs: List[object]) -> _RoundVector:
        """The resolutions of a whole batch, as batches of one would
        give them one pair after another in input order.  A hit replays
        ``rule.hit()`` on the flow rules the original walk traversed,
        so per-rule packet counters advance exactly as if the chain had
        been re-walked.

        When ``pairs`` is the sequence the last batch resolved and no
        row of that batch has been marked stale since (nor, for an
        unreached row, has anything anywhere changed), every lookup
        would be a hit and a hit has no side effect but ``rule.hit()``
        — so no row can go stale inside the batch either, and the rows
        are answered together: ``hits`` advances by the batch, each
        traversed rule's packet counter by its crossings.  Otherwise
        (cold, a row marked, another sequence) the batch resolves in one
        pass (:meth:`_resolve_rows`), row by row in order, so a walk's
        flow installs and a table mutation land where they would
        sequentially; a row marked while its own batch still resolves
        keeps the next one off the bulk path.
        """
        last = self._vector
        repeat = last is not None and last.pairs == pairs
        if (
            repeat and self.enabled and not last.marked
            and last.seen in (None, self._whole_stamp())
        ):
            self.hits += len(pairs)
            if last.rule_hits is None:
                crossings: Dict[int, List] = {}
                for res in last.resolutions:
                    for rule in res.trace.rules:
                        crossings.setdefault(id(rule), [rule, 0])[1] += 1
                last.rule_hits = [tuple(c) for c in crossings.values()]
            for rule, count in last.rule_hits:
                rule.packets += count
            return last
        endpoints = last.endpoints if repeat else [
            endpoints_of(pair) for pair in pairs
        ]
        before = self._whole_stamp()
        resolutions = self._resolve_rows(endpoints)
        vector = _round_vector(list(pairs), endpoints, resolutions)
        self._batches += 1
        for res in resolutions:
            res.batch = self._batches
        if not all(res.reached for res in resolutions):
            vector.seen = before  # moved during the batch: never again
        vector.marked = not self.enabled or any(
            res.stale is not None for res in resolutions
        )
        self._vector = vector
        return vector

    def _resolve_rows(
        self, endpoints: List[Tuple[EndpointId, EndpointId]]
    ) -> List[_Resolution]:
        """One pass over a batch: each row looked up, and each miss
        walked and resolved, in order (:meth:`_resolve_row`); then the
        reached misses register together (:meth:`_settle`)."""
        self._pending = []
        try:
            return [self._resolve_row(key) for key in endpoints]
        finally:
            self._walking = False
            self._settle()
            self._pending = None

    def _resolve_row(
        self, key: Tuple[EndpointId, EndpointId]
    ) -> _Resolution:
        """One row of a pass: a hit replays its rule hits; a miss walks
        (installing what the first packet and its echo install), is
        routed and weighed, and joins the pass's pending registrations
        if it reached."""
        cached = self._entries.get(key) if self.enabled else None
        if cached is None:
            cause = "cold"
        else:
            cause = cached.stale
            if cause is None:
                if cached.reached or cached.seen == self._whole_stamp():
                    self.hits += 1
                    for rule in cached.trace.rules:
                        rule.packets += 1  # rule.hit(), inlined
                    return cached
                cause = "epoch_changed"
        self.misses += 1
        self.metrics.increment(f"cache.miss.{cause}")
        src, dst = key
        self._walking = True
        trace, echo = self._cluster.overlay.first_contact(src, dst)
        self._walking = False
        resolution = _Resolution(
            trace=trace, fhash=flow_hash(src, dst), reached=trace.reached,
            pair=key,
            draw_key=pair_key(src, dst) if cached is None else cached.draw_key,
        )
        if trace.reached:
            # The echo response travels the reverse flow, whose rule
            # the destination's first reply packet installed.
            resolution.reverse, resolution.replier = echo
            routes = resolution.routes = self._routes(
                trace.src_rnic, trace.dst_rnic, resolution.fhash
            )
            resolution.overlay_fx = self._component_effects(resolution)
            resolution.plain = resolution.overlay_fx is _BENIGN and not any(
                route.faults for route in routes
            )
        else:
            resolution.overlay_reason = (
                "overlay forwarding loop" if trace.loop else
                f"overlay unreachable at {trace.failure_component}"
            )
        if self.enabled:
            if cached is not None:
                self._replaced += cached.indexed
            self._entries[key] = resolution
            if trace.reached:
                self._pending.append(resolution)
            else:
                resolution.seen = self._whole_stamp()
        return resolution

    def _settle(self) -> None:
        """Register the pass's pending reached misses that are still
        their pair's entry."""
        pending = self._pending
        if pending:
            self._pending = []
            self._register([res for res in pending if self._live(res)])

    def _routes(
        self, src_rnic: RnicId, dst_rnic: RnicId, fhash: int
    ) -> Tuple[_Route, ...]:
        """A reached pair's candidate routes with the faults each
        meets; a fault-free set is the one tuple every pair riding the
        same paths holds, built the first time it is met."""
        paths = _candidate_paths(
            self._cluster.topology, src_rnic, dst_rnic, fhash,
            self.ecmp_mode == "spray",
        )
        faults = [
            self._injector.relevant_faults(path, src_rnic, dst_rnic)
            for path in paths
        ]
        if any(faults):
            return tuple(
                _Route(path, met, path.hops, len(path.switches()))
                for path, met in zip(paths, faults)
            )
        key = tuple(map(id, paths))
        routes = self._plain_routes.get(key)
        if routes is None:
            routes = self._plain_routes[key] = tuple(
                _Route(path, (), path.hops, len(path.switches()))
                for path in paths
            )
        return routes

    @staticmethod
    def _component_effects(resolution: _Resolution) -> Effects:
        """Latency/loss contributed by the health flags of the six
        components on a reached chain; the one benign object when they
        add nothing."""
        if not any(
            health.down or health.loss_rate or health.extra_latency_us
            or health.force_software_path
            for health in resolution.trace.healths
        ):
            return _BENIGN
        combined = _BENIGN
        for health in resolution.healths[:6]:
            combined = combined.merge(Effects(
                down=health.down,
                loss_rate=health.loss_rate,
                extra_latency_us=health.extra_latency_us,
                force_software_path=health.force_software_path,
            ))
        return _BENIGN if combined == _BENIGN else combined


def _merge_fault_effects(
    faults: Tuple[object, ...],
    overlay_fx: Effects,
    at: float,
    fhash: int,
) -> Effects:
    """Total effects of ``faults`` (plus overlay health) on one probe."""
    combined = _BENIGN
    for fault in faults:
        contribution = fault.effects(at, fhash)
        if (
            contribution.down
            or contribution.loss_rate > 0.0
            or contribution.extra_latency_us != 0.0
            or contribution.force_software_path
        ):
            combined = combined.merge(contribution)
    return combined.merge(overlay_fx)


class DataPlaneFabric:
    """Sends probes across the simulated overlay + underlay."""

    def __init__(
        self,
        cluster: Cluster,
        injector: FaultInjector,
        rng: RngRegistry,
        latency_model: Optional[LatencyModel] = None,
        congestion: Optional[TransientCongestion] = None,
        metrics: Optional[MetricRegistry] = None,
        cache_enabled: bool = True,
        ecmp_mode: str = "static",
    ) -> None:
        self.cluster = cluster
        self.injector = injector
        self.latency_model = latency_model or LatencyModel()
        self.congestion = congestion or TransientCongestion(rate=0.0)
        # Every probe's uniforms are a pure function of (registry seed,
        # src, dst, send time): independent of batch composition
        # and draw order.
        self._draws = PairwiseDrawSource(rng.seed)
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self.resolution_cache = FlowResolutionCache(
            cluster, injector, enabled=cache_enabled, ecmp_mode=ecmp_mode
        )
        self.resolution_cache.metrics = self.metrics

    # ------------------------------------------------------------------
    # ECMP mode
    # ------------------------------------------------------------------

    @property
    def ecmp_mode(self) -> str:
        """The ECMP mode, fixed when the fabric is built: ``"static"``
        (pinned per-flow pick) or ``"spray"`` (per-packet path
        sampling)."""
        return self.resolution_cache.ecmp_mode

    @property
    def spraying(self) -> bool:
        """Whether per-packet path spraying is active."""
        return self.ecmp_mode == "spray"

    @property
    def probes_sent(self) -> int:
        """Lifetime count of probes sent (backed by the registry)."""
        return int(self.metrics.counter("probes.sent"))

    @property
    def probes_lost(self) -> int:
        """Lifetime count of probes lost (backed by the registry)."""
        return int(self.metrics.counter("probes.lost"))

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------

    def send_probe(
        self, src: EndpointId, dst: EndpointId, at: float
    ) -> ProbeResult:
        """Send one probe at simulated time ``at`` and observe its fate:
        a one-element :meth:`send_probe_batch`, so the same probe in any
        batch gets the same result."""
        return self.send_probe_batch([(src, dst)], at)[0]

    def send_probe_batch(
        self,
        pairs: Iterable[object],
        at: Union[float, np.ndarray],
    ) -> ProbeBatch:
        """Send one probe per pair at simulated time ``at`` — one time
        for the batch, or one per pair (a retry's send times).

        ``pairs`` may hold ``(src, dst)`` tuples or any objects with
        ``src``/``dst`` attributes (e.g.
        :class:`~repro.core.pinglist.ProbePair`).  The answer is one
        :class:`~repro.network.packet.ProbeBatch` over the pairs, in
        input order.  Each probe's uniform block is keyed by the probe
        (pair, send time), so its row does not depend on what
        else the batch holds; the blocks are drawn at once and every
        probe's fate and RTT come out of them as columns.

        Resolution happens first, for the whole batch
        (:meth:`FlowResolutionCache.resolve_all`: one pass over the
        probes *in order* unless every probe is known to be a hit, so
        first-use flow installs and a fault's table mutation land
        exactly as they would sequentially); it reads no uniform and
        evaluating a fault has no side effect, so the fates can follow
        together.  Only
        rows a fault or an unhealthy component can touch evaluate
        their :class:`Effects` one by one.
        """
        if not isinstance(pairs, list):
            pairs = list(pairs)
        n = len(pairs)
        if n == 0:
            return ProbeBatch([], np.empty(0), np.empty(0, bool), np.empty(0))
        sent_at = np.empty(n, dtype=np.float64)
        sent_at[:] = at
        vec = self.resolution_cache.resolve_all(pairs)
        # The columns this batch reads: RTT noise always, the loss gate
        # when a row meets a fault or an unhealthy component, the
        # congestion pair when congestion is on, the pick under spraying.
        columns = [_RTT, _SOFTWARE]
        if vec.special:
            columns.append(_LOSS)
        if self.congestion.rate > 0:
            columns += [_SPIKE_GATE, _SPIKE_SIZE]
        if self.spraying:
            columns.append(_PICK)
        draws = dict(zip(columns, self._draws.uniforms(
            vec.keys, at, columns
        ).T))

        # Per-packet path pick: the pick uniform indexes the
        # equal-probability candidate set; -1 on a probe that never
        # reached the underlay.
        if self.spraying:
            route = np.minimum(
                (draws[_PICK] * vec.nroutes).astype(np.int64),
                vec.nroutes - 1,
            )
        else:
            route = vec.nroutes - 1
        lost = np.zeros(n, dtype=bool)
        extra_us = np.zeros(n)
        software = vec.software.copy()
        reasons = [""] * n
        for i in vec.special:
            res = vec.resolutions[i]
            if not res.reached:
                reasons[i] = res.overlay_reason
            else:
                effects = _merge_fault_effects(
                    res.routes[route[i]].faults, res.overlay_fx,
                    float(sent_at[i]), res.fhash,
                )
                if effects.down:
                    reasons[i] = "component down on path"
                elif effects.loss_rate > 0 and float(
                    draws[_LOSS][i]
                ) < effects.loss_rate:
                    reasons[i] = "packet dropped on path"
                else:
                    extra_us[i] = effects.extra_latency_us
                    software[i] |= effects.force_software_path
                    continue
            lost[i] = True
            software[i] = False

        # One vectorized RTT pass over the delivered probes.
        rows = np.flatnonzero(~lost)
        latency_us = np.full(n, np.nan)
        if rows.size:
            taken = (vec.offsets + route)[rows]
            latency_us[rows] = self.latency_model.rtt_from_uniforms(
                draws[_RTT][rows], draws[_SOFTWARE][rows],
                num_links=vec.flat_hops[taken],
                num_switches=vec.flat_switches[taken],
                extra_us=extra_us[rows],
                software_path=software[rows],
            )
            if self.congestion.rate > 0:
                latency_us[rows] += self.congestion.spikes_from_uniforms(
                    draws[_SPIKE_GATE][rows], draws[_SPIKE_SIZE][rows]
                )

        self.metrics.increment("probes.sent", n)
        if rows.size < n:
            self.metrics.increment("probes.lost", n - rows.size)
        soft_count = int(np.count_nonzero(software))
        if soft_count:
            self.metrics.increment("probes.software_path", soft_count)
        return ProbeBatch(
            vec.pairs, sent_at, lost, latency_us, software,
            vec.resolutions, route, reasons, vec.keys,
        )

    # ------------------------------------------------------------------
    # Placement answers (target pickers, ground truth)
    # ------------------------------------------------------------------

    def traceroute(
        self, src: EndpointId, dst: EndpointId
    ) -> Optional[UnderlayPath]:
        """The path the (src, dst) flow's hash pins it to as the pair
        is placed, whatever the ECMP mode: a placement answer for
        fault-target pickers.  ``None`` when either endpoint is not
        attached to the overlay.
        """
        return next(
            iter(_placement_paths(self.cluster, src, dst, False)), None
        )

    def path_distribution(
        self, src: EndpointId, dst: EndpointId
    ) -> List[UnderlayPath]:
        """Every path a probe between ``src``/``dst`` may take as the
        pair is placed (every equal-cost candidate under spraying, the
        pinned pick under static ECMP): the placement answer ground
        truth reads (:func:`repro.core.evaluation.fault_affects_pair`),
        so a fault that breaks a pair's overlay still counts as
        observable to it.  Empty when either endpoint is not attached
        to the overlay.
        """
        return _placement_paths(self.cluster, src, dst, self.spraying)

    @property
    def loss_fraction(self) -> float:
        """Fraction of all probes ever sent that were lost."""
        if self.probes_sent == 0:
            return 0.0
        return self.probes_lost / self.probes_sent
