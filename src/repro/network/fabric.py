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
  valid while what it read is unchanged: its own match key in the flow
  tables its walk consulted (a neighbour's first-use install on the
  same host stales nothing), the health of the components along its
  chain, the ECMP mode, and no fault that meets it came or went;
* :meth:`DataPlaneFabric.send_probe_batch` answers a whole probing
  round as one :class:`~repro.network.packet.ProbeBatch` — columns, not
  one :class:`~repro.network.packet.ProbeResult` per probe.  Every
  probe's uniforms are keyed by the probe itself
  (:class:`~repro.network.draws.PairwiseDrawSource` over the registry
  seed), so a probe's row is the same in any batch, in any order, and
  :meth:`DataPlaneFabric.send_probe` is a batch of one.  The batch
  first resolves (:meth:`FlowResolutionCache.resolve_all`), then
  decides every fate from the uniforms: a round whose pair sequence and
  whole-overlay stamp are the ones the last round resolved under is all
  hits by construction and costs no per-probe lookup; anything else
  resolves probe by probe, in order, as ever.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.cluster.flowtable import FlowKey, FlowTable
from repro.cluster.identifiers import EndpointId, RnicId
from repro.cluster.orchestrator import Cluster
from repro.cluster.overlay import ComponentHealth, OverlayTrace
from repro.cluster.topology import UnderlayPath
from repro.network.draws import PairwiseDrawSource
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


@dataclass(frozen=True)
class _Route:
    """One underlay path a probe may take, with what it meets there:
    the path's relevant-fault tuple, pre-resolved so a per-packet pick
    costs one uniform and one tuple index."""

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


@dataclass
class _Resolution:
    """The deterministic (RNG-free, time-free) half of one probe."""

    trace: OverlayTrace
    fhash: int
    reached: bool
    overlay_reason: str = ""
    #: The path *distribution* of a reached probe, equal mass each: the
    #: one pinned pick under static ECMP, every candidate under
    #: spraying.
    routes: Tuple[_Route, ...] = ()
    # Merged component-health effects along the overlay chain.
    overlay_fx: Effects = field(default_factory=Effects)
    #: Reached, healthy overlay components, no fault on any candidate
    #: route: the probe is delivered with nothing added, so its fate
    #: needs no :class:`Effects` evaluated.
    plain: bool = False
    #: What a reached walk read and installed: each flow table with the
    #: match key looked up in it, and the health objects of the
    #: components along the chain.
    reads: Tuple[Tuple[FlowTable, FlowKey], ...] = ()
    healths: Tuple[ComponentHealth, ...] = ()
    #: Validity, set by :meth:`FlowResolutionCache.resolve`: the
    #: whole-overlay stamp this entry was last found valid under; and
    #: the :meth:`~FlowResolutionCache._read_stamp` of a reached entry.
    #: ``None``: valid under ``seen`` alone — an unreached entry, or a
    #: reached one marked stale by a fault that meets it (the fault
    #: moved the whole-overlay stamp, so ``seen`` is already behind).
    seen: int = 0
    stamp: Optional[Tuple[int, int]] = None


@dataclass
class _RoundVector:
    """One batch's pair sequence with what it resolved to, row by row.

    Every batch is answered from one of these; the cache keeps the last,
    so the same sequence probed again while nothing anywhere changed
    (``seen`` is still the whole-overlay stamp) needs no per-probe
    lookup.  Routes are ragged: row *i*'s candidates are
    ``flat_hops[offsets[i]:offsets[i] + nroutes[i]]``.
    """

    pairs: List[object]
    endpoints: List[Tuple[EndpointId, EndpointId]]
    resolutions: List[_Resolution]
    #: The whole-overlay stamp every row was found valid under; ``None``
    #: when the stamp moved while the rows were being resolved (a walk
    #: installed a rule) or nothing is cached.
    seen: Optional[int]
    nroutes: np.ndarray
    offsets: np.ndarray
    flat_hops: np.ndarray
    flat_switches: np.ndarray
    software: np.ndarray
    #: Rows whose fate is not "delivered, nothing added": unreached, or
    #: with a fault on a candidate route, or with unhealthy overlay
    #: components.  Only these evaluate :class:`Effects`.
    special: List[int]
    #: Built by the first bulk answer: each flow rule the rows' walks
    #: traversed with its crossing count, and the keyed-draw key column.
    rule_hits: Optional[List[Tuple[object, int]]] = None
    keys: Optional[np.ndarray] = None


def _round_vector(
    pairs: List[object],
    endpoints: List[Tuple[EndpointId, EndpointId]],
    resolutions: List[_Resolution],
    seen: Optional[int],
) -> _RoundVector:
    nroutes = np.fromiter(
        (len(res.routes) for res in resolutions), np.int64, len(pairs)
    )
    routes = [route for res in resolutions for route in res.routes]
    return _RoundVector(
        pairs=pairs, endpoints=endpoints,
        resolutions=resolutions, seen=seen, nroutes=nroutes,
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
    )


class FlowResolutionCache:
    """Memoizes per-(src, dst) probe resolutions.

    A resolution is valid while what it read is unchanged.  For a
    *reached* resolution that is: (1) :meth:`FlowTable.version_of` its
    own match keys — the forward :attr:`OverlayTrace.key` in every
    table of :attr:`OverlayTrace.tables` (the OVS table of each visited
    host, the offload table of each traversed RNIC) and the reverse
    key its echo reply installs in the destination host's OVS and
    offload tables; a flow table is an exact-match dict, so another
    flow's first-use install on the same host changes none of them,
    while container attach and detach, which touch the whole table,
    change all; (2) the :attr:`ComponentHealth.version` of every
    component along its chain; (3) the ECMP mode (one coarse routing
    epoch: a switch changes what every resolution *is*); and (4) no
    fault that :meth:`Fault.meets` it was injected or cleared — the
    cache observes the injector and marks exactly those entries stale.
    So a fault landing costs the pairs it touches, and Figure-18-style
    faults (a table mutating under a warm cache) still surface on the
    next probe.  An *unreached* resolution (table miss, loop, unknown
    encap target, unattached endpoint) is valid under the whole-overlay
    stamp alone: what would make it reachable is in no table its walk
    consulted.

    A lookup first compares the whole-overlay stamp the entry was last
    found valid under (:attr:`OverlayNetwork.epoch`,
    :attr:`FaultInjector.epoch` and the routing epoch) — while nothing
    anywhere has changed it is the only check, one int compare — and
    only after a change re-validates a reached entry against what it
    read.  Every recompute is counted by cause on :attr:`metrics`:
    ``cache.miss.cold`` (no entry yet), ``.table_changed`` (a key or
    table the walk read) or ``.epoch_changed`` (component health, ECMP
    mode, a fault that meets the entry, or anything at all for an
    unreached one).
    """

    def __init__(
        self,
        cluster: Cluster,
        injector: FaultInjector,
        enabled: bool = True,
    ) -> None:
        self._cluster = cluster
        self._injector = injector
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        #: Where miss causes are counted; the fabric points this at its
        #: own registry.
        self.metrics = MetricRegistry()
        #: ECMP mode resolutions are computed under ("static"/"spray");
        #: owned by the fabric via :meth:`set_mode`.
        self.ecmp_mode = "static"
        self._routing_epoch = 0
        self._entries: Dict[
            Tuple[EndpointId, EndpointId], _Resolution
        ] = {}
        #: What the last batch resolved to (:meth:`resolve_all`).
        self._vector: Optional[_RoundVector] = None
        injector.add_observer(self._on_fault)

    def __len__(self) -> int:
        return len(self._entries)

    def set_mode(self, mode: str) -> None:
        """Adopt an ECMP mode, invalidating every cached resolution.

        Toggling spraying changes what a resolution *is* (pinned pick
        vs. path distribution), so the routing epoch bumps and all
        entries cached under the previous mode go stale — a per-flow
        pick cached under static ECMP is never replayed as a sprayed
        probe, and vice versa.
        """
        if mode == self.ecmp_mode:
            return
        self.ecmp_mode = mode
        self._routing_epoch += 1

    @property
    def routing_epoch(self) -> int:
        """Monotone counter of ECMP-mode switches."""
        return self._routing_epoch

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups served from the cache (0 before any)."""
        return self.hits / max(self.hits + self.misses, 1)

    def _whole_stamp(self) -> int:
        """Unchanged means nothing anywhere changed: every overlay
        mutation, fault inject/clear and ECMP-mode switch moves a term,
        and every term only ever grows."""
        return (
            self._cluster.overlay.epoch + self._injector.epoch
            + self._routing_epoch
        )

    def _read_stamp(self, resolution: _Resolution) -> Tuple[int, int]:
        """What a reached resolution is valid under: the versions of
        the keys and tables it read, and of the component healths plus
        the routing epoch — two sums of terms that only ever grow, so
        each is unchanged exactly when every term is."""
        tables = 0
        for table, key in resolution.reads:
            tables += table.version_of(key)
        epochs = self._routing_epoch
        for health in resolution.healths:
            epochs += health.version
        return tables, epochs

    def _on_fault(self, action: str, fault: Fault, at: float) -> None:
        """A fault came or went: mark stale the reached entries it
        meets (their relevant-fault tuples change); every other entry
        keeps its stamp."""
        for entry in self._entries.values():
            if entry.stamp is not None and fault.meets(
                (route.path for route in entry.routes),
                entry.trace.src_rnic, entry.trace.dst_rnic,
            ):
                entry.stamp = None

    def invalidate(self) -> None:
        """Drop every cached resolution (stamps make this optional)."""
        self._entries.clear()
        self._vector = None

    def resolve(self, src: EndpointId, dst: EndpointId) -> _Resolution:
        """The resolution for one probe, cached when possible.

        Cache-served resolutions replay ``rule.hit()`` on the flow rules
        the original walk traversed, so per-rule packet counters advance
        exactly as if the chain had been re-walked.
        """
        key = (src, dst)
        cached = self._entries.get(key) if self.enabled else None
        if cached is None:
            cause = "cold"
        else:
            whole = self._whole_stamp()
            cause = "epoch_changed"
            if cached.seen != whole and cached.stamp is not None:
                now = self._read_stamp(cached)
                if now == cached.stamp:
                    cached.seen = whole  # changes elsewhere: still valid
                elif now[1] == cached.stamp[1]:
                    cause = "table_changed"
            if cached.seen == whole:
                self.hits += 1
                for rule in cached.trace.rules:
                    rule.hit()
                return cached
        self.misses += 1
        self.metrics.increment(f"cache.miss.{cause}")
        resolution = self._compute(src, dst)
        if self.enabled:
            # Stamped *after* the walk's side effects: it may have
            # installed flow rules (mutating tables it consulted), and
            # the entry must be valid from this state onward.
            resolution.seen = self._whole_stamp()
            if resolution.reached:
                resolution.stamp = self._read_stamp(resolution)
            self._entries[key] = resolution
        return resolution

    def resolve_all(self, pairs: List[object]) -> _RoundVector:
        """The resolutions of a whole batch, as :meth:`resolve` would
        give them one pair after another in input order.

        When ``pairs`` is the sequence the last batch resolved and the
        whole-overlay stamp is the one every row of that batch was found
        valid under, every lookup would be a hit and a hit has no side
        effect but ``rule.hit()`` — so the stamp cannot move inside the
        batch either, and the rows are answered together: ``hits``
        advances by the batch, each traversed rule's packet counter by
        its crossings.  Otherwise (cold, something changed, another
        sequence) the rows resolve one by one, in order, so a walk's
        flow installs and a table mutation land where they would
        sequentially.
        """
        last = self._vector
        repeat = last is not None and last.pairs == pairs
        if (
            repeat and self.enabled
            and last.seen == self._whole_stamp()
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
        resolutions = [self.resolve(src, dst) for src, dst in endpoints]
        settled = self.enabled and before == self._whole_stamp()
        self._vector = _round_vector(
            list(pairs), endpoints, resolutions,
            before if settled else None,
        )
        return self._vector

    def _compute(self, src: EndpointId, dst: EndpointId) -> _Resolution:
        overlay = self._cluster.overlay
        trace = overlay.trace(src, dst, install_missing=True)
        reverse = None
        if overlay.is_registered(src) and overlay.is_registered(dst):
            # The echo response travels the reverse flow, whose rule the
            # destination's first reply packet installs.
            reverse = overlay.ensure_flow(dst, src)
        fhash = flow_hash(src, dst)

        if not trace.reached:
            reason = "overlay forwarding loop" if trace.loop else (
                f"overlay unreachable at {trace.failure_component}"
            )
            return _Resolution(
                trace=trace, fhash=fhash, reached=False,
                overlay_reason=reason,
            )

        src_rnic = trace.src_rnic
        dst_rnic = trace.dst_rnic
        routes = tuple(
            _Route(
                path=path,
                faults=self._injector.relevant_faults(
                    path, src_rnic, dst_rnic
                ),
                hops=path.hops,
                switches=len(path.switches()),
            )
            for path in _candidate_paths(
                self._cluster.topology, src_rnic, dst_rnic, fhash,
                self.ecmp_mode == "spray",
            )
        )
        # What the walk read: the six components whose flags merge
        # into its effects (plus any a longer chain crossed), the
        # forward key in each table it consulted, and the reverse key
        # its echo reply installed at the destination.  A reached walk
        # starts at the source veth, OVS and RNIC and ends at the
        # destination's, so the chain is read off it, not formatted.
        tables = trace.tables
        chain = (
            trace.hops[0].component, tables[0].component,
            tables[1].component, tables[-1].component,
            tables[-2].component, trace.hops[-1].component,
        )
        healths = [overlay.health(name) for name in chain + tuple(
            name for name in trace.components() if name not in chain
        )]
        reads = [(table, trace.key) for table in tables]
        if reverse is not None:
            replier = overlay.record_of(dst)
            reads += [
                (overlay.ovs_table(replier.host), reverse),
                (overlay.offload_table(replier.vf.rnic), reverse),
            ]
        overlay_fx = self._component_effects(healths[:len(chain)])
        return _Resolution(
            trace=trace, fhash=fhash, reached=True, routes=routes,
            overlay_fx=overlay_fx,
            plain=overlay_fx == Effects() and not any(
                route.faults for route in routes
            ),
            reads=tuple(reads), healths=tuple(healths),
        )

    @staticmethod
    def _component_effects(healths: List[ComponentHealth]) -> Effects:
        """Latency/loss contributed by overlay component health flags."""
        combined = Effects()
        if not any(
            health.down or health.loss_rate or health.extra_latency_us
            or health.force_software_path
            for health in healths
        ):
            return combined  # what merging six benign components gives
        for health in healths:
            combined = combined.merge(Effects(
                down=health.down,
                loss_rate=health.loss_rate,
                extra_latency_us=health.extra_latency_us,
                force_software_path=health.force_software_path,
            ))
        return combined


def _merge_fault_effects(
    faults: Tuple[object, ...],
    overlay_fx: Effects,
    at: float,
    fhash: int,
) -> Effects:
    """Total effects of ``faults`` (plus overlay health) on one probe."""
    combined = Effects()
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
            cluster, injector, enabled=cache_enabled
        )
        self.resolution_cache.metrics = self.metrics

    # ------------------------------------------------------------------
    # ECMP mode
    # ------------------------------------------------------------------

    @property
    def ecmp_mode(self) -> str:
        """The active ECMP mode: ``"static"`` (pinned per-flow pick) or
        ``"spray"`` (per-packet path sampling)."""
        return self.resolution_cache.ecmp_mode

    @property
    def spraying(self) -> bool:
        """Whether per-packet path spraying is active."""
        return self.ecmp_mode == "spray"

    def set_ecmp_mode(self, mode: str) -> None:
        """Switch between static per-flow ECMP and per-packet spraying.

        Bumps the resolution cache's routing epoch, so stale pinned
        picks are never replayed under the wrong mode.
        """
        if mode not in ("static", "spray"):
            raise ValueError(f"unknown ECMP mode {mode!r}")
        self.resolution_cache.set_mode(mode)

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
        (:meth:`FlowResolutionCache.resolve_all`: per probe *in order*
        unless every probe is known to be a hit, so first-use flow
        installs and a fault's table mutation land exactly as they
        would sequentially); it reads no uniform and evaluating a fault
        has no side effect, so the fates can follow together.  Only
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
        if vec.keys is None:
            vec.keys = self._draws.keys_of(vec.endpoints)
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
    # Host-agent capabilities (used by the localizer)
    # ------------------------------------------------------------------

    def _paths(
        self, src: EndpointId, dst: EndpointId, spraying: bool
    ) -> List[UnderlayPath]:
        """Every path a (src, dst) probe may take under the given ECMP
        mode; none unless both endpoints are attached to the overlay."""
        overlay = self.cluster.overlay
        if not overlay.is_registered(src) or not overlay.is_registered(dst):
            return []
        return _candidate_paths(
            self.cluster.topology, overlay.rnic_of(src), overlay.rnic_of(dst),
            flow_hash(src, dst), spraying,
        )

    def traceroute(
        self, src: EndpointId, dst: EndpointId
    ) -> Optional[UnderlayPath]:
        """The underlay path the (src, dst) flow is pinned to, if known.

        Mirrors the paper's per-host traceroute agents: reveals the actual
        ECMP choice so tomography can intersect failing paths.  Returns
        ``None`` when either endpoint is not attached to the overlay.
        """
        return next(iter(self._paths(src, dst, spraying=False)), None)

    def path_distribution(
        self, src: EndpointId, dst: EndpointId
    ) -> List[UnderlayPath]:
        """Every underlay path a probe between ``src``/``dst`` may take.

        Under spraying, the full equal-probability ECMP candidate set
        (each path carries mass ``1/len``); under static ECMP, the
        single pinned pick.  Distribution-aware tomography weights its
        votes by this mass instead of assuming one deterministic path.
        Empty when either endpoint is not attached to the overlay.
        """
        return self._paths(src, dst, self.spraying)

    @property
    def loss_fraction(self) -> float:
        """Fraction of all probes ever sent that were lost."""
        if self.probes_sent == 0:
            return 0.0
        return self.probes_lost / self.probes_sent
