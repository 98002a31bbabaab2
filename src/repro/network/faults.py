"""Fault injection: turning Table-1 issues into data-plane perturbations.

Each injected :class:`Fault` targets one concrete component (a physical
link, a switch, an RNIC, a host, a container, or an overlay component) and
perturbs the data plane the way the corresponding production issue does:
dropping packets, adding latency, forcing the software path, corrupting
flow tables, or crashing the container.  Every fault carries its ground
truth — the set of component names an accurate localizer may blame — so
the evaluation harness can score detection and localization exactly like
the paper's manual verification did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.cluster.container import Container
from repro.cluster.identifiers import (
    ContainerId,
    HostId,
    LinkId,
    RnicId,
    SwitchId,
)
from repro.cluster.orchestrator import Cluster
from repro.cluster.overlay import ovs_name, veth_name, vtep_name
from repro.cluster.topology import UnderlayPath
from repro.network.draws import keyed_uniform
from repro.network.issues import (
    ISSUE_CATALOG,
    ComponentClass,
    GrayIssueType,
    IssueType,
    Symptom,
    spec_of,
)
from repro.network.load import (
    LinkLoadModel,
    collapse_latency_us,
    collapse_loss_rate,
)

__all__ = [
    "Effects",
    "Fault",
    "FaultInjector",
    "container_component",
    "gray_injection_overrides",
    "host_component",
    "storm_center",
]


def host_component(host: HostId) -> str:
    """Ground-truth component name for host-level (board/config) faults."""
    return f"host:{host}"


def container_component(container_id: ContainerId) -> str:
    """Ground-truth component name for container-runtime faults."""
    return f"container:{container_id}"


@dataclass
class Effects:
    """Aggregate data-plane effect of active faults on one probe."""

    down: bool = False
    loss_rate: float = 0.0
    extra_latency_us: float = 0.0
    force_software_path: bool = False

    def merge(self, other: "Effects") -> "Effects":
        """Combine two effect sets (losses compose independently)."""
        return Effects(
            down=self.down or other.down,
            loss_rate=1.0 - (1.0 - self.loss_rate) * (1.0 - other.loss_rate),
            extra_latency_us=self.extra_latency_us + other.extra_latency_us,
            force_software_path=(
                self.force_software_path or other.force_software_path
            ),
        )


@dataclass
class Fault:
    """One injected failure with its data-plane parameters."""

    issue: IssueType
    target: object
    start: float
    end: Optional[float] = None
    loss_rate: float = 0.0
    extra_latency_us: float = 0.0
    down: bool = False
    flap_period_s: float = 0.0
    flap_duty: float = 0.5
    flow_selector: int = 1  # affect flows with hash % selector == 0
    #: Links that suffer *secondary* effects (PFC pause propagation):
    #: a path crossing one of these — but not the target — experiences
    #: :attr:`victim_loss_rate`/:attr:`victim_extra_latency_us` instead
    #: of the primary parameters.
    victim_links: FrozenSet[LinkId] = frozenset()
    victim_loss_rate: float = 0.0
    victim_extra_latency_us: float = 0.0
    culprits: Set[str] = field(default_factory=set)
    #: Assigned by :meth:`FaultInjector.inject` when left ``None``;
    #: run-local (never a process-global counter) so two same-seed
    #: runs in one process register identical ids.  Replay re-pins
    #: recorded ids via ``fault_overrides``.
    fault_id: Optional[int] = None
    _undo: List[Callable[[], None]] = field(default_factory=list, repr=False)

    @property
    def symptom(self) -> Symptom:
        """The catalogue symptom of this fault's issue type."""
        return spec_of(self.issue).symptom

    @property
    def component_class(self) -> ComponentClass:
        """The catalogue component class of this fault's issue type."""
        return spec_of(self.issue).component

    def active_at(self, t: float) -> bool:
        """Whether the fault exists at time ``t``."""
        return t >= self.start and (self.end is None or t < self.end)

    def misbehaving_at(self, t: float) -> bool:
        """Whether the fault is in its bad phase at ``t`` (flapping-aware)."""
        if not self.active_at(t):
            return False
        if self.flap_period_s <= 0:
            return True
        phase = (t - self.start) % self.flap_period_s
        return phase < self.flap_duty * self.flap_period_s

    def affects_flow(self, fhash: int) -> bool:
        """Whether a flow with hash ``fhash`` is hit (selective faults)."""
        if self.flow_selector <= 1:
            return True
        return fhash % self.flow_selector == 0

    def effects(self, t: float, fhash: int = 0) -> Effects:
        """The effect this fault contributes at ``t`` for flow ``fhash``."""
        if not self.misbehaving_at(t) or not self.affects_flow(fhash):
            return Effects()
        return Effects(
            down=self.down,
            loss_rate=self.loss_rate,
            extra_latency_us=self.extra_latency_us,
        )

    def victim_view(self) -> "_VictimView":
        """This fault as seen from one of its victim links.

        The view satisfies the same ``effects(t, fhash)`` protocol the
        fabric's cached fault tuples use, so a resolution whose path
        crosses a victim link (but not the target) caches the view and
        evaluates secondary effects per probe at zero extra cost.
        """
        view = self._victim_view
        if view is None:
            view = _VictimView(self)
            self._victim_view = view
        return view

    _victim_view: Optional["_VictimView"] = field(
        default=None, repr=False, compare=False
    )


class _VictimView:
    """A fault's secondary (pause-propagation) face on a victim link."""

    __slots__ = ("fault",)

    def __init__(self, fault: Fault) -> None:
        self.fault = fault

    def effects(self, t: float, fhash: int = 0) -> Effects:
        fault = self.fault
        if not fault.misbehaving_at(t) or not fault.affects_flow(fhash):
            return Effects()
        return Effects(
            loss_rate=fault.victim_loss_rate,
            extra_latency_us=fault.victim_extra_latency_us,
        )


class FaultInjector:
    """Owns active faults and answers the fabric's effect queries."""

    def __init__(self, cluster: Cluster) -> None:
        self._cluster = cluster
        self._faults: Dict[int, Fault] = {}
        self._next_fault_id = 0
        self._epoch = 0
        # Observers fire as ``observer(action, fault, at)`` with action
        # "inject" or "clear" — the telemetry bus records ground truth
        # through this hook so replays can re-apply the exact schedule.
        self._observers: List[Callable[[str, Fault, float], None]] = []

    def add_observer(
        self, observer: Callable[[str, Fault, float], None]
    ) -> None:
        """Register a ground-truth observer for injects and clears."""
        self._observers.append(observer)

    def _notify(self, action: str, fault: Fault, at: float) -> None:
        for observer in list(self._observers):
            observer(action, fault, at)

    @property
    def epoch(self) -> int:
        """Monotone counter of fault registrations and clears.

        A probe resolution that cached its relevant-fault list at epoch
        *e* is valid exactly while ``epoch == e``; every :meth:`inject`
        and :meth:`clear` (which also cover the overlay/table side
        effects they apply or revert) bumps it.
        """
        return self._epoch

    # ------------------------------------------------------------------
    # Injection API
    # ------------------------------------------------------------------

    def inject(self, fault: Fault) -> Fault:
        """Register a fault and apply any overlay/table side effects.

        An unpinned fault gets the next run-local id, so same-seed
        runs in one process record byte-identical ground truth.
        """
        if fault.fault_id is None:
            while self._next_fault_id in self._faults:
                self._next_fault_id += 1
            fault.fault_id = self._next_fault_id
            self._next_fault_id += 1
        self._faults[fault.fault_id] = fault
        self._apply_side_effects(fault)
        self._epoch += 1
        self._notify("inject", fault, fault.start)
        return fault

    def clear(self, fault: Fault, at: float) -> None:
        """End a fault at time ``at`` and revert its side effects."""
        fault.end = at
        for undo in reversed(fault._undo):
            undo()
        fault._undo.clear()
        self._epoch += 1
        self._notify("clear", fault, at)

    def active_faults(self, t: float) -> List[Fault]:
        """All faults active at ``t``."""
        return [f for f in self._faults.values() if f.active_at(t)]

    def all_faults(self) -> List[Fault]:
        """Every fault ever injected, in injection order."""
        return [self._faults[k] for k in sorted(self._faults)]

    def ground_truth(self, t: float) -> Set[str]:
        """Union of culprit component names of faults active at ``t``."""
        names: Set[str] = set()
        for fault in self.active_faults(t):
            names |= fault.culprits
        return names

    # ------------------------------------------------------------------
    # Factories: one per Table-1 issue type
    # ------------------------------------------------------------------

    def inject_issue(
        self,
        issue: IssueType,
        target: object,
        start: float,
        **overrides,
    ) -> Fault:
        """Inject ``issue`` against ``target`` with canonical parameters."""
        factory = _FACTORIES.get(issue)
        if factory is None:
            raise ValueError(f"no factory registered for {issue}")
        fault = factory(self._cluster, target, start)
        if isinstance(target, RnicId):
            # Path evidence cannot distinguish a dead RNIC from its
            # access link; blaming either is a correct localization.
            tor = self._cluster.topology.tor_of(target)
            fault.culprits.add(str(LinkId.between(target, tor)))
        for key, value in overrides.items():
            setattr(fault, key, value)
        return self.inject(fault)

    # ------------------------------------------------------------------
    # Fabric-facing effect queries
    # ------------------------------------------------------------------

    def path_effects(
        self, path: UnderlayPath, t: float, fhash: int = 0
    ) -> Effects:
        """Combined underlay effects along ``path`` at ``t``."""
        combined = Effects()
        link_set = set(path.links)
        switch_set = set(path.switches())
        for fault in self._faults.values():
            if not fault.misbehaving_at(t):
                continue
            target = fault.target
            hit = False
            if isinstance(target, LinkId) and target in link_set:
                hit = True
            elif isinstance(target, SwitchId) and str(target) in switch_set:
                hit = True
            if hit:
                combined = combined.merge(fault.effects(t, fhash))
            elif fault.victim_links and not fault.victim_links.isdisjoint(
                link_set
            ):
                combined = combined.merge(
                    fault.victim_view().effects(t, fhash)
                )
        return combined

    def rnic_effects(self, rnic: RnicId, t: float, fhash: int = 0) -> Effects:
        """Combined effects of faults targeting a physical RNIC."""
        combined = Effects()
        for fault in self._faults.values():
            if isinstance(fault.target, RnicId) and fault.target == rnic:
                combined = combined.merge(fault.effects(t, fhash))
        return combined

    def relevant_faults(
        self, path: UnderlayPath, src_rnic: RnicId, dst_rnic: RnicId
    ) -> Tuple[Fault, ...]:
        """Every fault whose target could perturb this probe resolution.

        The *time-independent* half of the effect queries: which faults
        sit on the underlay path, on either endpoint RNIC, or on either
        endpoint host.  The fabric caches this tuple per resolution (it
        only changes when :attr:`epoch` does) and evaluates the cheap
        time/flow-dependent :meth:`Fault.effects` per probe.  Ordered
        like the one-by-one queries: path, src RNIC, dst RNIC, src host,
        dst host.
        """
        link_set = set(path.links)
        switch_set = set(path.switches())
        on_path: List[object] = []
        on_src_rnic: List[Fault] = []
        on_dst_rnic: List[Fault] = []
        on_src_host: List[Fault] = []
        on_dst_host: List[Fault] = []
        for fault in self._faults.values():
            target = fault.target
            if isinstance(target, LinkId):
                if target in link_set:
                    on_path.append(fault)
                elif fault.victim_links and not (
                    fault.victim_links.isdisjoint(link_set)
                ):
                    # Victim-only hit: cache the secondary-effect view.
                    on_path.append(fault.victim_view())
            elif isinstance(target, SwitchId):
                if str(target) in switch_set:
                    on_path.append(fault)
            elif isinstance(target, RnicId):
                if target == src_rnic:
                    on_src_rnic.append(fault)
                if target == dst_rnic:
                    on_dst_rnic.append(fault)
            elif isinstance(target, HostId):
                if target == src_rnic.host:
                    on_src_host.append(fault)
                if target == dst_rnic.host:
                    on_dst_host.append(fault)
        return tuple(
            on_path + on_src_rnic + on_dst_rnic + on_src_host + on_dst_host
        )

    # ------------------------------------------------------------------
    # Side effects on overlay / tables
    # ------------------------------------------------------------------

    def _apply_side_effects(self, fault: Fault) -> None:
        overlay = self._cluster.overlay
        issue, target = fault.issue, fault.target

        if issue == IssueType.OFFLOADING_FAILURE and isinstance(
            target, RnicId
        ):
            health = overlay.health(vtep_name(target))
            health.force_software_path = True
            fault._undo.append(
                lambda: setattr(health, "force_software_path", False)
            )
            # Existing offloaded flows fall back to software: the hardware
            # cache empties and OVS shows the rules as not offloaded.
            hw = overlay.offload_table(target)
            table = overlay.ovs_table(target.host)
            demoted = []
            for rule in table.rules():
                if rule.offloaded and rule.offloaded_to == str(target):
                    demoted.append(rule)
                    rule.offloaded = False
            dropped = list(hw.rules())
            hw.clear()

            def _restore_offload() -> None:
                for rule in demoted:
                    rule.offloaded = True
                for rule in dropped:
                    hw.install(rule.key, rule.action)

            fault._undo.append(_restore_offload)

        elif issue == IssueType.RNIC_GID_CHANGE and isinstance(
            target, RnicId
        ):
            # The OS restarted its network service: every DELIVER rule for
            # endpoints behind this RNIC now points at a stale GID.  Model:
            # drop the deliver rules from the host OVS table.
            table = overlay.ovs_table(target.host)
            removed = []
            for rule in table.rules():
                action = rule.action
                if action.local_vf is not None and action.local_vf.rnic == target:
                    removed.append(rule)
                    table.remove(rule.key)
            offload = overlay.offload_table(target)
            hw_removed = []
            for rule in offload.rules():
                if (
                    rule.action.local_vf is not None
                    and rule.action.local_vf.rnic == target
                ):
                    hw_removed.append(rule)
                    offload.remove(rule.key)

            def _restore() -> None:
                for rule in removed:
                    fresh = table.install(rule.key, rule.action)
                    fresh.offloaded = rule.offloaded
                    fresh.offloaded_to = rule.offloaded_to
                for rule in hw_removed:
                    offload.install(rule.key, rule.action)

            fault._undo.append(_restore)

        elif issue == IssueType.NOT_USING_RDMA and isinstance(
            target, HostId
        ):
            # Flows leave via TCP through the kernel: mark rules
            # non-offloaded and purge the hardware caches on this host.
            table = overlay.ovs_table(target)
            reverted = []
            for rule in table.rules():
                if rule.offloaded:
                    rule.offloaded = False
                    reverted.append(rule)
            host = self._cluster.host(target)
            purged = []
            for rnic in host.rnics:
                hw = overlay.offload_table(rnic.id)
                for rule in hw.rules():
                    purged.append((hw, rule))
                    hw.remove(rule.key)
                health = overlay.health(vtep_name(rnic.id))
                health.force_software_path = True
                fault._undo.append(
                    lambda h=health: setattr(h, "force_software_path", False)
                )

            def _restore_rdma() -> None:
                for rule in reverted:
                    rule.offloaded = True
                for hw, rule in purged:
                    hw.install(rule.key, rule.action)

            fault._undo.append(_restore_rdma)

        elif issue == IssueType.REPETITIVE_FLOW_OFFLOADING and isinstance(
            target, RnicId
        ):
            # The RNIC keeps invalidating offloaded flows while OVS still
            # believes they are in hardware (the Figure-18 inconsistency).
            hw = overlay.offload_table(target)
            dropped = []
            for rule in hw.rules():
                dropped.append(rule)
                hw.invalidate(rule.key)

            def _reoffload() -> None:
                for rule in dropped:
                    hw.install(rule.key, rule.action)

            fault._undo.append(_reoffload)
            health = overlay.health(vtep_name(target))
            health.force_software_path = True
            fault._undo.append(
                lambda: setattr(health, "force_software_path", False)
            )

        elif issue == IssueType.CONTAINER_CRASH and isinstance(
            target, Container
        ):
            for endpoint in target.endpoints():
                h = overlay.health(veth_name(endpoint))
                h.down = True
                fault._undo.append(lambda hh=h: setattr(hh, "down", False))


# ----------------------------------------------------------------------
# Canonical fault parameters per issue type
# ----------------------------------------------------------------------


def _link_fault(issue: IssueType, **params) -> Callable:
    def factory(cluster: Cluster, target: LinkId, start: float) -> Fault:
        if not isinstance(target, LinkId):
            raise TypeError(f"{issue} targets a LinkId, got {type(target)}")
        return Fault(issue=issue, target=target, start=start,
                     culprits={str(target)}, **params)

    return factory


def _switch_fault(issue: IssueType, **params) -> Callable:
    def factory(cluster: Cluster, target: SwitchId, start: float) -> Fault:
        if not isinstance(target, SwitchId):
            raise TypeError(f"{issue} targets a SwitchId, got {type(target)}")
        return Fault(issue=issue, target=target, start=start,
                     culprits={str(target)}, **params)

    return factory


def _rnic_fault(issue: IssueType, extra_culprits=(), **params) -> Callable:
    def factory(cluster: Cluster, target: RnicId, start: float) -> Fault:
        if not isinstance(target, RnicId):
            raise TypeError(f"{issue} targets an RnicId, got {type(target)}")
        culprits = {str(target), vtep_name(target)}
        for extra in extra_culprits:
            culprits.add(extra(target))
        return Fault(issue=issue, target=target, start=start,
                     culprits=culprits, **params)

    return factory


def _host_fault(issue: IssueType, **params) -> Callable:
    def factory(cluster: Cluster, target: HostId, start: float) -> Fault:
        if not isinstance(target, HostId):
            raise TypeError(f"{issue} targets a HostId, got {type(target)}")
        culprits = {host_component(target)}
        if ISSUE_CATALOG[issue].component == ComponentClass.VIRTUAL_SWITCH:
            culprits.add(ovs_name(target))
        return Fault(issue=issue, target=target, start=start,
                     culprits=culprits, **params)

    return factory


def _container_fault(issue: IssueType, **params) -> Callable:
    def factory(cluster: Cluster, target: Container, start: float) -> Fault:
        if not isinstance(target, Container):
            raise TypeError(
                f"{issue} targets a Container, got {type(target)}"
            )
        return Fault(issue=issue, target=target, start=start,
                     culprits={container_component(target.id)}, **params)

    return factory


# ----------------------------------------------------------------------
# Gray-failure families (load-dependent; SHIFT §4 / SprayCheck §2)
# ----------------------------------------------------------------------


def storm_center(link: LinkId) -> str:
    """The switch whose paused ports propagate a PFC storm on ``link``.

    PFC pause frames travel upstream from the congested egress port, so
    the storm centres on the link's aggregation-side device: the spine
    for a ToR–spine link, the ToR for an access link.
    """
    for prefix in ("spine-", "core-", "tor-", "edge-"):
        for name in (link.a, link.b):
            if name.startswith(prefix):
                return name
    return link.a


def _pfc_storm_factory(
    cluster: Cluster, target: LinkId, start: float
) -> Fault:
    if not isinstance(target, LinkId):
        raise TypeError(
            f"{GrayIssueType.PFC_STORM} targets a LinkId, got {type(target)}"
        )
    center = storm_center(target)
    victims = frozenset(
        link for link in cluster.topology.links()
        if link.touches(center) and link != target
    )
    return Fault(
        issue=GrayIssueType.PFC_STORM, target=target, start=start,
        loss_rate=0.06, extra_latency_us=350.0,
        victim_links=victims,
        victim_loss_rate=0.02, victim_extra_latency_us=220.0,
        # Pause propagation makes the whole storm centre blameworthy:
        # an accurate localizer may pin the congested link or the
        # switch whose ports it paused.
        culprits={str(target), center},
    )


def _congestion_collapse_factory(
    cluster: Cluster, target: LinkId, start: float
) -> Fault:
    if not isinstance(target, LinkId):
        raise TypeError(
            f"{GrayIssueType.CONGESTION_COLLAPSE} targets a LinkId, "
            f"got {type(target)}"
        )
    # Canonical severity assumes a warm link; injection sites that know
    # the workload pass utilization-coupled overrides instead (see
    # :func:`gray_injection_overrides`).
    return Fault(
        issue=GrayIssueType.CONGESTION_COLLAPSE, target=target, start=start,
        loss_rate=collapse_loss_rate(0.75),
        extra_latency_us=collapse_latency_us(0.75),
        culprits={str(target)},
    )


def _partial_degradation_factory(
    cluster: Cluster, target: LinkId, start: float
) -> Fault:
    if not isinstance(target, LinkId):
        raise TypeError(
            f"{GrayIssueType.PARTIAL_LINK_DEGRADATION} targets a LinkId, "
            f"got {type(target)}"
        )
    return Fault(
        issue=GrayIssueType.PARTIAL_LINK_DEGRADATION, target=target,
        start=start, loss_rate=0.08, extra_latency_us=30.0,
        culprits={str(target)},
    )


def gray_injection_overrides(
    issue: GrayIssueType,
    target: LinkId,
    seed: int,
    load_model: Optional[LinkLoadModel] = None,
    salt: int = 0,
) -> Dict[str, float]:
    """Scenario-coupled severity overrides for a gray fault.

    Partial degradation draws its severity through the keyed-draw
    contract — a pure function of ``(seed, target, salt)``, so every
    replica of a run derives the same marginal link.  Congestion
    collapse couples severity to the link's utilization under the
    workload's traffic matrix when a :class:`LinkLoadModel` is given
    (cool links collapse mildly, hot links catastrophically).  PFC
    storms need no overrides: the factory derives the victim set from
    the topology itself.
    """
    if issue is GrayIssueType.PARTIAL_LINK_DEGRADATION:
        severity = keyed_uniform(seed, f"gray:partial:{target}", salt)
        return {
            "loss_rate": 0.05 + 0.10 * severity,
            "extra_latency_us": 18.0 + 42.0 * severity,
        }
    if issue is GrayIssueType.CONGESTION_COLLAPSE and load_model is not None:
        utilization = max(0.35, load_model.class_utilization(target))
        return {
            "loss_rate": collapse_loss_rate(utilization),
            "extra_latency_us": collapse_latency_us(utilization),
        }
    return {}


_FACTORIES: Dict[object, Callable] = {
    GrayIssueType.PFC_STORM: _pfc_storm_factory,
    GrayIssueType.CONGESTION_COLLAPSE: _congestion_collapse_factory,
    GrayIssueType.PARTIAL_LINK_DEGRADATION: _partial_degradation_factory,
    IssueType.CRC_ERROR: _link_fault(
        IssueType.CRC_ERROR, loss_rate=0.10
    ),
    IssueType.SWITCH_PORT_DOWN: _link_fault(
        IssueType.SWITCH_PORT_DOWN, down=True
    ),
    IssueType.SWITCH_PORT_FLAPPING: _link_fault(
        IssueType.SWITCH_PORT_FLAPPING,
        down=True, flap_period_s=20.0, flap_duty=0.35,
    ),
    IssueType.SWITCH_OFFLINE: _switch_fault(
        IssueType.SWITCH_OFFLINE, down=True
    ),
    IssueType.RNIC_HARDWARE_FAILURE: _rnic_fault(
        IssueType.RNIC_HARDWARE_FAILURE, down=True
    ),
    IssueType.RNIC_FIRMWARE_NOT_RESPONDING: _rnic_fault(
        IssueType.RNIC_FIRMWARE_NOT_RESPONDING,
        extra_latency_us=150.0, flow_selector=2,
    ),
    IssueType.RNIC_PORT_DOWN: _rnic_fault(
        IssueType.RNIC_PORT_DOWN, down=True
    ),
    IssueType.RNIC_PORT_FLAPPING: _rnic_fault(
        IssueType.RNIC_PORT_FLAPPING,
        down=True, flap_period_s=30.0, flap_duty=0.4,
    ),
    IssueType.OFFLOADING_FAILURE: _rnic_fault(
        IssueType.OFFLOADING_FAILURE
    ),
    IssueType.BOND_ERROR: _rnic_fault(
        IssueType.BOND_ERROR, down=True
    ),
    IssueType.RNIC_GID_CHANGE: _rnic_fault(
        IssueType.RNIC_GID_CHANGE,
        extra_culprits=(lambda r: host_component(r.host),),
    ),
    IssueType.PCIE_NIC_ERROR: _host_fault(
        IssueType.PCIE_NIC_ERROR, extra_latency_us=90.0
    ),
    IssueType.GPU_DIRECT_RDMA_ERROR: _host_fault(
        IssueType.GPU_DIRECT_RDMA_ERROR, extra_latency_us=70.0
    ),
    IssueType.NOT_USING_RDMA: _host_fault(
        IssueType.NOT_USING_RDMA
    ),
    IssueType.REPETITIVE_FLOW_OFFLOADING: _rnic_fault(
        IssueType.REPETITIVE_FLOW_OFFLOADING, loss_rate=0.0005
    ),
    IssueType.SUBOPTIMAL_FLOW_OFFLOADING: _host_fault(
        IssueType.SUBOPTIMAL_FLOW_OFFLOADING,
        extra_latency_us=60.0, flow_selector=2,
    ),
    IssueType.CONTAINER_CRASH: _container_fault(
        IssueType.CONTAINER_CRASH
    ),
    IssueType.HUGEPAGE_MISCONFIGURATION: _host_fault(
        IssueType.HUGEPAGE_MISCONFIGURATION, extra_latency_us=45.0
    ),
    IssueType.CONGESTION_CONTROL_ISSUE: _switch_fault(
        IssueType.CONGESTION_CONTROL_ISSUE, extra_latency_us=55.0
    ),
}
