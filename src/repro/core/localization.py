"""Optimistic overlay–underlay disentanglement (§5.3, Algorithm 1).

Given the failure events the analyzer raised, localize the culprit
component under the optimistic assumption that overlay causes are
software-level and underlay causes are hardware-level, so the two layers
can be examined independently:

1. **Overlay logical reachability** — replay the forwarding chain of each
   failing pair over the live flow tables (read-only).  A null forward
   pinpoints the broken overlay component; a revisited component reveals
   a forwarding loop.
2. **Underlay physical intersection** — traceroute the failing pairs and
   let tomography vote on shared physical links (hard failures also
   exonerate links that healthy probes crossed).
3. **RNIC validation** — if neither layer explains an event, dump and
   diff the OVS and RNIC flow tables of both endpoints (intrusive,
   therefore last), catching silent hardware invalidation and
   software-path fallbacks.
4. **Host concentration** — events that still resist explanation but
   concentrate on one host are handed to host fine-checking (board or
   configuration trouble: PCIe, GPU-direct, hugepages).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.cluster.identifiers import EndpointId, HostId, RnicId
from repro.cluster.orchestrator import Cluster
from repro.cluster.overlay import OverlayError, OverlayTrace
from repro.cluster.topology import UnderlayPath
from repro.core.analyzer import FailureEvent
from repro.core.pinglist import ProbePair
from repro.core.rnic_validation import RnicValidator
from repro.core.tomography import IntersectionResult, PhysicalIntersection
from repro.network.fabric import DataPlaneFabric
from repro.network.issues import ComponentClass, Symptom
from repro.obs.span import open_span

__all__ = [
    "Diagnosis",
    "LocalizationReport",
    "Localizer",
    "healthy_pairs_for",
    "localize_open_events",
]


def _pair_label(pair: ProbePair) -> str:
    return f"{pair.src}<->{pair.dst}"


def healthy_pairs_for(
    events: Sequence[FailureEvent],
    all_pairs: Sequence[ProbePair],
) -> List[ProbePair]:
    """The exoneration set for a localization batch: every monitored
    pair not implicated by ``events``.  Shared by the single-process
    hunter and the shard coordinator so both feed tomography the same
    healthy evidence for the same failure set."""
    failing = {event.pair for event in events}
    return [pair for pair in all_pairs if pair not in failing]


def localize_open_events(
    localizer: "Localizer",
    open_events: Sequence[FailureEvent],
    localized: Set[Tuple[ProbePair, float]],
    universe: Callable[[List[FailureEvent]], Sequence[ProbePair]],
    now: float,
) -> Tuple[List[FailureEvent], Optional["LocalizationReport"]]:
    """One round's localization step, run by the live hunter and the
    bus replayer alike.  Fresh events (keys not in ``localized``) only
    gate whether to run; the batch is *every* open event: gray faults
    trickle events in across rounds, a single-pair batch gives
    tomography nothing to intersect, and still-open incidents are live
    evidence that must not count as healthy exoneration mass.
    ``universe(fresh)``, every monitored pair, is asked for only when
    something is fresh, before the vote.  Returns ``(fresh, report)``
    with ``fresh`` marked localized, or ``([], None)``."""
    fresh = [e for e in open_events if e.key not in localized]
    if not fresh:
        return [], None
    healthy = healthy_pairs_for(open_events, universe(fresh))
    report = localizer.localize(open_events, healthy_pairs=healthy, now=now)
    localized.update(event.key for event in fresh)
    return fresh, report


@dataclass(frozen=True)
class Diagnosis:
    """One localized culprit with its supporting evidence."""

    component: str
    component_class: ComponentClass
    layer: str           # overlay | underlay | rnic | host
    evidence: str
    pairs: Tuple[ProbePair, ...]
    confidence: float = 1.0

    def explain(self, recorder=None) -> str:
        """Render the evidence chain behind this verdict.

        With the :class:`~repro.obs.trace.TraceRecorder` the localizer
        emitted into, the chain includes the captured walk steps,
        tomography votes, or flow-table findings; without one it falls
        back to the one-line ``evidence`` summary.
        """
        from repro.obs.explain import explain_diagnosis

        return explain_diagnosis(self, recorder)


@dataclass
class LocalizationReport:
    """Ranked diagnoses plus anything the pipeline could not explain."""

    diagnoses: List[Diagnosis] = field(default_factory=list)
    unexplained: List[FailureEvent] = field(default_factory=list)

    def components(self) -> List[str]:
        """Component names in rank order."""
        return [d.component for d in self.diagnoses]

    def best(self) -> Optional[Diagnosis]:
        """The highest-confidence diagnosis, if any."""
        if not self.diagnoses:
            return None
        return max(self.diagnoses, key=lambda d: d.confidence)

    def explain(self, recorder=None) -> str:
        """Render every diagnosis with its evidence chain."""
        from repro.obs.explain import explain_report

        return explain_report(self, recorder)

    def verdict_row(
        self,
    ) -> Tuple[Tuple[Tuple[str, str, str, float], ...], int]:
        """The report as bus records and equivalence gates carry it:
        ``(component, class, layer, confidence)`` per diagnosis in rank
        order (confidence rounded to 9 places, so float noise below
        that never reads as a verdict change), plus the
        unexplained-event count."""
        return (
            tuple(
                (d.component, d.component_class.value, d.layer,
                 round(d.confidence, 9))
                for d in self.diagnoses
            ),
            len(self.unexplained),
        )


class Localizer:
    """Runs Algorithm 1 over batches of failure events."""

    def __init__(
        self,
        cluster: Cluster,
        fabric: DataPlaneFabric,
        recorder=None,
        chaos=None,
    ) -> None:
        self.cluster = cluster
        self.fabric = fabric
        self.intersection = PhysicalIntersection()
        self.validator = RnicValidator(
            cluster, chaos=chaos, recorder=recorder
        )
        self.recorder = recorder
        #: When the fabric sprays packets, vote over path distributions
        #: (mass-weighted) instead of pinned traceroutes.  Disable to
        #: measure how naive single-path tomography degrades under
        #: spraying (the bench's "naive" comparator).
        self.distribution_aware = True
        self._now = 0.0     # sim time of the localize() call in flight

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def localize(
        self,
        events: Sequence[FailureEvent],
        healthy_pairs: Sequence[ProbePair] = (),
        now: float = 0.0,
    ) -> LocalizationReport:
        """Run the full disentanglement over a batch of events."""
        self._now = now
        with open_span(
            self.recorder, "localize.run", sim_time=now, events=len(events)
        ) as span:
            report = self._localize(events, healthy_pairs)
            span.set(
                diagnoses=len(report.diagnoses),
                unexplained=len(report.unexplained),
            )
        return report

    def _localize(
        self,
        events: Sequence[FailureEvent],
        healthy_pairs: Sequence[ProbePair],
    ) -> LocalizationReport:
        report = LocalizationReport()
        remaining: List[FailureEvent] = []

        for event in events:
            diagnosis = self._overlay_reachability(event)
            if diagnosis is not None:
                self._add(report, diagnosis)
            else:
                remaining.append(event)

        remaining = self._physical_intersection(
            remaining, healthy_pairs, report
        )
        remaining = self._validate_rnics(remaining, report)
        remaining = self._host_concentration(remaining, report)
        report.unexplained = remaining
        return report

    def _add(
        self, report: LocalizationReport, diagnosis: Diagnosis
    ) -> None:
        """Append a diagnosis and record the verdict event."""
        report.diagnoses.append(diagnosis)
        if self.recorder is not None:
            self.recorder.count("diagnoses.made")
            self.recorder.event(
                "localize.diagnosis", sim_time=self._now,
                component=diagnosis.component,
                component_class=diagnosis.component_class.value,
                layer=diagnosis.layer,
                evidence=diagnosis.evidence,
                pairs=[_pair_label(p) for p in diagnosis.pairs],
                confidence=diagnosis.confidence,
            )

    # ------------------------------------------------------------------
    # Step 1: overlay logical reachability (Algorithm 1, lines 7-15)
    # ------------------------------------------------------------------

    def _overlay_reachability(
        self, event: FailureEvent
    ) -> Optional[Diagnosis]:
        pair = event.pair
        trace = self.cluster.overlay.trace(
            pair.src, pair.dst, install_missing=False
        )
        if trace.reached and not trace.loop:
            # Try the reverse direction too: probes are bidirectional.
            trace = self.cluster.overlay.trace(
                pair.dst, pair.src, install_missing=False
            )
            if trace.reached and not trace.loop:
                return None
        diagnosis = self._classify_overlay_break(event, trace)
        if self.recorder is not None:
            self.recorder.event(
                "localize.overlay", sim_time=self._now,
                pair=_pair_label(pair),
                reached=trace.reached, loop=trace.loop,
                steps=[
                    {
                        "component": hop.component, "kind": hop.kind,
                        "ok": hop.ok, "note": hop.note,
                    }
                    for hop in trace.hops
                ],
                component=(
                    diagnosis.component if diagnosis is not None else None
                ),
                evidence=(
                    diagnosis.evidence if diagnosis is not None else None
                ),
            )
        return diagnosis

    def _classify_overlay_break(
        self, event: FailureEvent, trace: OverlayTrace
    ) -> Optional[Diagnosis]:
        if trace.loop:
            component = trace.hops[-1].component
            return Diagnosis(
                component=component,
                component_class=ComponentClass.VIRTUAL_SWITCH,
                layer="overlay",
                evidence="forwarding loop in overlay chain",
                pairs=(event.pair,),
            )
        failing = next((h for h in trace.hops if not h.ok), None)
        if failing is None:
            return None
        kind, _, name = failing.component.partition(":")
        if kind == "veth":
            endpoint = self._endpoint_from_name(name, event.pair)
            container = (
                endpoint.container if endpoint is not None else name
            )
            return Diagnosis(
                component=f"container:{container}",
                component_class=ComponentClass.CONTAINER_RUNTIME,
                layer="overlay",
                evidence=f"veth unreachable: {failing.note}",
                pairs=(event.pair,),
            )
        if kind == "ovs":
            return self._classify_ovs_break(event, name, failing.note)
        if kind == "vtep":
            return Diagnosis(
                component=name,
                component_class=ComponentClass.RNIC,
                layer="overlay",
                evidence=f"VTEP failure: {failing.note}",
                pairs=(event.pair,),
            )
        return Diagnosis(
            component=failing.component,
            component_class=ComponentClass.VIRTUAL_SWITCH,
            layer="overlay",
            evidence=failing.note or "overlay forwarding broke",
            pairs=(event.pair,),
        )

    def _classify_ovs_break(
        self, event: FailureEvent, host_name: str, note: str
    ) -> Diagnosis:
        """A flow-table miss: destination-side misses smell like the
        kernel invalidating GIDs; source/transit misses are the virtual
        switch losing rules."""
        dst_host = self._host_of_endpoint(event.pair.dst)
        src_host = self._host_of_endpoint(event.pair.src)
        if dst_host is not None and host_name == str(dst_host) and (
            "miss" in note
        ):
            return Diagnosis(
                component=f"host:{dst_host}",
                component_class=ComponentClass.KERNEL,
                layer="overlay",
                evidence="delivery rule vanished on destination host "
                "(GID/addressing change)",
                pairs=(event.pair,),
            )
        if src_host is not None and host_name == str(src_host) and (
            "miss" in note
        ):
            # The reverse-direction walk can also break at the *other*
            # side's delivery rule; same kernel-level classification.
            return Diagnosis(
                component=f"host:{src_host}",
                component_class=ComponentClass.KERNEL,
                layer="overlay",
                evidence="delivery rule vanished on source-side host "
                "(GID/addressing change)",
                pairs=(event.pair,),
            )
        return Diagnosis(
            component=f"ovs:{host_name}",
            component_class=ComponentClass.VIRTUAL_SWITCH,
            layer="overlay",
            evidence=note or "virtual switch failed to forward",
            pairs=(event.pair,),
        )

    # ------------------------------------------------------------------
    # Step 2: underlay physical intersection (Algorithm 1, lines 16-21)
    # ------------------------------------------------------------------

    def _physical_intersection(
        self,
        events: List[FailureEvent],
        healthy_pairs: Sequence[ProbePair],
        report: LocalizationReport,
    ) -> List[FailureEvent]:
        if not events:
            return []
        # Routes are asked of the fabric, never carried in.  A pinned
        # traceroute is meaningless under per-packet spraying (one
        # sample, not the flow's route): vote by mass over the full
        # path distribution of every pair instead.
        sprayed = self.distribution_aware and self.fabric.spraying

        def routes(pair: ProbePair) -> List[UnderlayPath]:
            if sprayed:
                return self.fabric.path_distribution(pair.src, pair.dst)
            path = self.fabric.traceroute(pair.src, pair.dst)
            return [path] if path is not None else []

        hard = [e for e in events if e.symptom == Symptom.UNCONNECTIVITY]
        soft = [e for e in events if e.symptom != Symptom.UNCONNECTIVITY]
        explained: Set[ProbePair] = set()
        healthy = [d for d in map(routes, healthy_pairs) if d]

        for group, exonerate in ((hard, True), (soft, False)):
            dists = {
                pair: dist for pair, dist in (
                    (event.pair, routes(event.pair)) for event in group
                ) if dist
            }
            if len(dists) < 2:
                continue
            result = self.intersection.vote(
                list(dists.values()), healthy,
                exonerate=exonerate, weighted=sprayed,
            )
            # Blame the pairs that can cross a suspect link or, on a
            # device-level verdict, transit the promoted switch.
            blamed_pairs = tuple(sorted(
                pair for pair, dist in dists.items()
                if any(
                    any(link in result.suspects for link in path.links)
                    if result.suspects
                    else result.promoted_component in path.switches()
                    for path in dist
                )
            ))
            if self.recorder is not None:
                self.recorder.event(
                    "localize.tomography", sim_time=self._now,
                    group="hard" if exonerate else "soft",
                    exonerate=exonerate and not sprayed,
                    sprayed=sprayed,
                    failing_paths=len(dists),
                    healthy_paths=len(healthy),
                    components=result.blamed_components(),
                    blamed_pairs=[_pair_label(p) for p in blamed_pairs],
                    **result.as_fields(),
                )
            if not result.found:
                continue
            primary = self._underlay_diagnosis(result, blamed_pairs, group)
            self._add(report, primary)
            # Path evidence cannot separate a device from its attached
            # link(s); report the voted links as secondary suspects.
            for link in result.suspects:
                if str(link) == primary.component:
                    continue
                vote = result.votes.get(link, 0)
                evidence = (
                    f"top-voted physical link "
                    f"({vote:.2f} failing path mass)"
                    if sprayed else
                    f"top-voted physical link ({vote} failing paths)"
                )
                self._add(report, Diagnosis(
                    component=str(link),
                    component_class=ComponentClass.INTER_HOST_NETWORK,
                    layer="underlay",
                    evidence=evidence,
                    pairs=blamed_pairs,
                    confidence=0.8,
                ))
            explained.update(blamed_pairs)

        return [e for e in events if e.pair not in explained]

    def _underlay_diagnosis(
        self,
        result: IntersectionResult,
        pairs: Tuple[ProbePair, ...],
        group: Sequence[FailureEvent],
    ) -> Diagnosis:
        symptoms = {e.symptom for e in group if e.pair in set(pairs)}
        at = (
            ", ".join(str(s) for s in result.suspects)
            or result.promoted_component or "nothing"
        )
        evidence = (
            f"tomography: {len(pairs)} failing paths intersect at {at}"
        )
        if result.promoted_kind == "switch":
            return Diagnosis(
                component=result.promoted_component,
                component_class=ComponentClass.INTER_HOST_NETWORK,
                layer="underlay", evidence=evidence, pairs=pairs,
            )
        if result.promoted_kind == "rnic":
            return Diagnosis(
                component=result.promoted_component,
                component_class=ComponentClass.RNIC,
                layer="underlay", evidence=evidence, pairs=pairs,
            )
        if result.promoted_kind == "host":
            component_class = (
                ComponentClass.HOST_BOARD
                if Symptom.HIGH_LATENCY in symptoms
                else ComponentClass.INTER_HOST_NETWORK
            )
            return Diagnosis(
                component=result.promoted_component,
                component_class=component_class,
                layer="underlay", evidence=evidence, pairs=pairs,
            )
        return Diagnosis(
            component=str(result.suspects[0]),
            component_class=ComponentClass.INTER_HOST_NETWORK,
            layer="underlay", evidence=evidence, pairs=pairs,
        )

    # ------------------------------------------------------------------
    # Step 3: RNIC validation (§5.3, "Validating RNICs")
    # ------------------------------------------------------------------

    def _validate_rnics(
        self, events: List[FailureEvent], report: LocalizationReport
    ) -> List[FailureEvent]:
        if not events:
            return []
        remaining: List[FailureEvent] = []
        for event in events:
            rnics = [
                r for r in (
                    self._rnic_of_endpoint(event.pair.src),
                    self._rnic_of_endpoint(event.pair.dst),
                ) if r is not None
            ]
            diagnosis = self._diagnose_from_findings(event, rnics)
            if diagnosis is not None:
                self._add(report, diagnosis)
            else:
                remaining.append(event)
        return remaining

    def _diagnose_from_findings(
        self, event: FailureEvent, rnics: List[RnicId]
    ) -> Optional[Diagnosis]:
        for rnic in rnics:
            finding = self.validator.validate(rnic, at=self._now)
            if finding.read_error or not finding.suspicious:
                # A failed dump is evidence of nothing: skip the RNIC
                # rather than misread it as clean *or* suspicious.
                continue
            diagnosis = self._diagnosis_for_finding(event, rnic, finding)
            if self.recorder is not None:
                self.recorder.event(
                    "localize.rnic", sim_time=self._now,
                    pair=_pair_label(event.pair),
                    component=diagnosis.component,
                    evidence=diagnosis.evidence,
                    **finding.as_fields(),
                )
            return diagnosis
        return None

    def _diagnosis_for_finding(
        self, event: FailureEvent, rnic: RnicId, finding
    ) -> Diagnosis:
        if finding.silently_invalidated > 0:
            return Diagnosis(
                component=str(rnic),
                component_class=ComponentClass.VIRTUAL_SWITCH,
                layer="rnic",
                evidence=(
                    f"{finding.silently_invalidated} flows marked "
                    "offloaded in OVS but absent from the RNIC "
                    "(silent invalidation)"
                ),
                pairs=(event.pair,),
            )
        if finding.software_path_rules > 0:
            if self._whole_host_on_software_path(rnic):
                return Diagnosis(
                    component=f"host:{rnic.host}",
                    component_class=ComponentClass.VIRTUAL_SWITCH,
                    layer="rnic",
                    evidence="every RNIC of the host is on the "
                    "software path (virtual switch not using RDMA)",
                    pairs=(event.pair,),
                )
            return Diagnosis(
                component=str(rnic),
                component_class=ComponentClass.RNIC,
                layer="rnic",
                evidence=f"{finding.software_path_rules} flows stuck "
                "on the software path (offloading failure)",
                pairs=(event.pair,),
            )
        return Diagnosis(
            component=str(rnic),
            component_class=ComponentClass.RNIC,
            layer="rnic",
            evidence="RNIC hardware rules diverge from OVS",
            pairs=(event.pair,),
        )

    def _whole_host_on_software_path(self, rnic: RnicId) -> bool:
        host = self.cluster.host(rnic.host)
        findings = self.validator.validate_many(
            (r.id for r in host.rnics), at=self._now
        )
        active = [
            f for f in findings.values()
            if not f.read_error and (
                f.inconsistencies or len(
                    self.cluster.overlay.offload_table(f.rnic)
                ) > 0
            )
        ]
        if len(active) < 2:
            return False
        return all(f.software_path_rules > 0 for f in active)

    # ------------------------------------------------------------------
    # Step 4: host concentration fallback
    # ------------------------------------------------------------------

    def _host_concentration(
        self, events: List[FailureEvent], report: LocalizationReport
    ) -> List[FailureEvent]:
        if not events:
            return []
        votes: Counter = Counter()
        for event in events:
            for endpoint in (event.pair.src, event.pair.dst):
                host = self._host_of_endpoint(endpoint)
                if host is not None:
                    votes[host] += 1
        if not votes:
            return events
        host, count = votes.most_common(1)[0]
        if count < 2 and len(events) > 1:
            return events
        pairs = tuple(sorted(
            e.pair for e in events
            if host in (
                self._host_of_endpoint(e.pair.src),
                self._host_of_endpoint(e.pair.dst),
            )
        ))
        diagnosis = Diagnosis(
            component=f"host:{host}",
            component_class=ComponentClass.HOST_BOARD,
            layer="host",
            evidence=f"{count} failing endpoints concentrate on {host}; "
            "handed to host fine-checking",
            pairs=pairs,
            confidence=0.6,
        )
        if self.recorder is not None:
            self.recorder.event(
                "localize.host", sim_time=self._now,
                votes={str(h): c for h, c in votes.items()},
                component=diagnosis.component,
                evidence=diagnosis.evidence,
            )
        self._add(report, diagnosis)
        return [e for e in events if e.pair not in set(pairs)]

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _host_of_endpoint(self, endpoint: EndpointId) -> Optional[HostId]:
        try:
            return self.cluster.overlay.record_of(endpoint).host
        except OverlayError:
            return None

    def _rnic_of_endpoint(self, endpoint: EndpointId) -> Optional[RnicId]:
        try:
            return self.cluster.overlay.rnic_of(endpoint)
        except OverlayError:
            return None

    @staticmethod
    def _endpoint_from_name(
        name: str, pair: ProbePair
    ) -> Optional[EndpointId]:
        for endpoint in (pair.src, pair.dst):
            if str(endpoint) == name:
                return endpoint
        return None
