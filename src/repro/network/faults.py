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
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

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


@dataclass(frozen=True)
class Effects:
    """Aggregate data-plane effect of active faults on one probe.

    Immutable, so one benign instance is shared by every resolution
    whose overlay chain adds nothing; :meth:`merge` returns a new one.
    """

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

    def face_on(self, path: UnderlayPath) -> Optional[object]:
        """How this fault meets an underlay route — the one place a
        fault and a path are compared.

        The fault itself when its link or switch target is on ``path``;
        its :meth:`victim_view` when the path misses the target but
        crosses a victim link; ``None`` when the path never touches it
        (always, for RNIC, host and container targets: those meet a
        probe at its endpoints, not along its route).
        """
        target = self.target
        if isinstance(target, LinkId):
            if target in path.links:
                return self
            if not self.victim_links.isdisjoint(path.links):
                return self.victim_view()
        elif isinstance(target, SwitchId) and (
            str(target) in path.switches()
        ):
            return self
        return None

    def meets(
        self, paths: Iterable[UnderlayPath], src_rnic: RnicId,
        dst_rnic: RnicId,
    ) -> bool:
        """Whether this fault could perturb a probe between two RNICs
        that may ride any of ``paths`` — the one place a fault and a
        resolution are compared: it sits on an endpoint RNIC or its
        host, or shows a face (:meth:`face_on`) on a candidate route."""
        return self.target in (
            src_rnic, dst_rnic, src_rnic.host, dst_rnic.host
        ) or any(self.face_on(path) is not None for path in paths)


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
        #: The faults :meth:`clear` has not ended, in injection order.
        self._live: Dict[int, Fault] = {}
        self._next_fault_id = 0
        self._epoch = 0
        # Observers fire as ``observer(action, fault, at)`` with action
        # "inject" or "clear" — the telemetry bus records ground truth
        # through this hook so replays can re-apply the exact schedule,
        # and the fabric's resolution cache re-walks the pairs the
        # fault meets.
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

        A term of the fabric's whole-overlay stamp, which an
        *unreached* resolution is valid under.  A reached resolution
        does not read it: an inject or clear marks stale exactly the
        cached resolutions the fault :meth:`Fault.meets` (observers are
        told), and the overlay/table side effects it applies or reverts
        are reported by the overlay like any other change.
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
        self._faults[fault.fault_id] = self._live[fault.fault_id] = fault
        self._apply_side_effects(fault)
        self._epoch += 1
        self._notify("inject", fault, fault.start)
        return fault

    def clear(self, fault: Fault, at: float) -> None:
        """End a fault at time ``at`` and revert its side effects."""
        fault.end = at
        self._live.pop(fault.fault_id, None)
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
    # Catalogue injection
    # ------------------------------------------------------------------

    def inject_issue(
        self,
        issue: IssueType,
        target: object,
        start: float,
        **overrides,
    ) -> Fault:
        """Inject ``issue`` against ``target`` with canonical parameters.

        The catalogue's ``target_kind`` says which species ``target``
        must be, :data:`_PARAMS` how the issue perturbs the data plane,
        :func:`_culprits` whom a localizer may blame for it.
        """
        expected = _TARGET_TYPES[spec_of(issue).target_kind]
        if not isinstance(target, expected):
            raise TypeError(
                f"{issue} targets a {expected.__name__}, "
                f"got {type(target)}"
            )
        params = _PARAMS[issue]
        if callable(params):
            params = params(self._cluster, target)
        fault = Fault(
            issue=issue, target=target, start=start,
            culprits=_culprits(issue, target, self._cluster.topology),
            **params,
        )
        for key, value in overrides.items():
            setattr(fault, key, value)
        return self.inject(fault)

    # ------------------------------------------------------------------
    # Fabric-facing effect query
    # ------------------------------------------------------------------

    def relevant_faults(
        self, path: UnderlayPath, src_rnic: RnicId, dst_rnic: RnicId
    ) -> Tuple[object, ...]:
        """Every live fault whose target could perturb this probe
        resolution (:meth:`Fault.meets`).

        The *time-independent* half of a probe's fate: which faults
        show a face on the underlay path (:meth:`Fault.face_on`), then
        which sit on the source RNIC, the destination RNIC, the source
        host, the destination host — in that order, a fault once per
        place it is met (a same-host pair meets a host fault twice).
        The fabric caches this tuple per resolution (it only changes
        when a fault that meets the resolution is injected or cleared)
        and evaluates the cheap time/flow-dependent ``effects(t,
        fhash)`` per probe.  A fault :meth:`clear` has ended is left
        out: the injector's clock only moves forward, so it contributes
        nothing at any time a probe is still to be sent.
        """
        if not self._live:
            return ()
        faults = [
            fault for fault in self._live.values()
            if fault.meets((path,), src_rnic, dst_rnic)
        ]
        if not faults:
            return ()
        met = [
            face for face in (fault.face_on(path) for fault in faults)
            if face is not None
        ]
        for place in (src_rnic, dst_rnic, src_rnic.host, dst_rnic.host):
            met += [fault for fault in faults if fault.target == place]
        return tuple(met)

    # ------------------------------------------------------------------
    # Side effects on overlay / tables
    # ------------------------------------------------------------------

    def _apply_side_effects(self, fault: Fault) -> None:
        overlay = self._cluster.overlay
        issue = fault.issue
        target: Any = fault.target  # its species: inject_issue's check

        if issue == IssueType.OFFLOADING_FAILURE:
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

        elif issue == IssueType.RNIC_GID_CHANGE:
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

        elif issue == IssueType.NOT_USING_RDMA:
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

        elif issue == IssueType.REPETITIVE_FLOW_OFFLOADING:
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

        elif issue == IssueType.CONTAINER_CRASH:
            for endpoint in target.endpoints():
                h = overlay.health(veth_name(endpoint))
                h.down = True
                fault._undo.append(lambda hh=h: setattr(hh, "down", False))


# ----------------------------------------------------------------------
# Canonical fault parameters: one row per catalogue issue
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


def _pfc_storm_params(cluster: Cluster, target: LinkId) -> dict:
    """PFC storm: the one family whose parameters read the topology —
    every other link of the storm centre is a pause-propagation
    victim."""
    center = storm_center(target)
    return dict(
        loss_rate=0.06, extra_latency_us=350.0,
        victim_links=frozenset(
            link for link in cluster.topology.links()
            if link.touches(center) and link != target
        ),
        victim_loss_rate=0.02, victim_extra_latency_us=220.0,
    )


#: The identifier type behind each ``IssueSpec.target_kind``.
_TARGET_TYPES: Dict[str, type] = {
    "link": LinkId,
    "switch": SwitchId,
    "rnic": RnicId,
    "host": HostId,
    "container": Container,
}

#: How each catalogue issue perturbs the data plane: the :class:`Fault`
#: fields it sets (or a ``(cluster, target) -> fields`` function).  With
#: the issue's ``IssueSpec`` row this is all an issue is — adding one is
#: a catalogue row plus a row here.  Issues with no fields act through
#: :meth:`FaultInjector._apply_side_effects` alone.
_PARAMS: Dict[object, Any] = {
    IssueType.CRC_ERROR: dict(loss_rate=0.10),
    IssueType.SWITCH_PORT_DOWN: dict(down=True),
    IssueType.SWITCH_PORT_FLAPPING: dict(
        down=True, flap_period_s=20.0, flap_duty=0.35
    ),
    IssueType.SWITCH_OFFLINE: dict(down=True),
    IssueType.RNIC_HARDWARE_FAILURE: dict(down=True),
    IssueType.RNIC_FIRMWARE_NOT_RESPONDING: dict(
        extra_latency_us=150.0, flow_selector=2
    ),
    IssueType.RNIC_PORT_DOWN: dict(down=True),
    IssueType.RNIC_PORT_FLAPPING: dict(
        down=True, flap_period_s=30.0, flap_duty=0.4
    ),
    IssueType.OFFLOADING_FAILURE: {},
    IssueType.BOND_ERROR: dict(down=True),
    IssueType.RNIC_GID_CHANGE: {},
    IssueType.PCIE_NIC_ERROR: dict(extra_latency_us=90.0),
    IssueType.GPU_DIRECT_RDMA_ERROR: dict(extra_latency_us=70.0),
    IssueType.NOT_USING_RDMA: {},
    IssueType.REPETITIVE_FLOW_OFFLOADING: dict(loss_rate=0.0005),
    IssueType.SUBOPTIMAL_FLOW_OFFLOADING: dict(
        extra_latency_us=60.0, flow_selector=2
    ),
    IssueType.CONTAINER_CRASH: {},
    IssueType.HUGEPAGE_MISCONFIGURATION: dict(extra_latency_us=45.0),
    IssueType.CONGESTION_CONTROL_ISSUE: dict(extra_latency_us=55.0),
    GrayIssueType.PFC_STORM: _pfc_storm_params,
    # Canonical severity assumes a warm link; injection sites that know
    # the workload pass utilization-coupled overrides instead (see
    # :func:`gray_injection_overrides`).
    GrayIssueType.CONGESTION_COLLAPSE: dict(
        loss_rate=collapse_loss_rate(0.75),
        extra_latency_us=collapse_latency_us(0.75),
    ),
    GrayIssueType.PARTIAL_LINK_DEGRADATION: dict(
        loss_rate=0.08, extra_latency_us=30.0
    ),
}


def _culprits(issue: Any, target: Any, topology) -> Set[str]:
    """The component names an accurate localizer may blame for
    ``issue`` on ``target`` — the fault's ground truth."""
    spec = spec_of(issue)
    if spec.target_kind == "container":
        return {container_component(target.id)}
    if spec.target_kind == "host":
        culprits = {host_component(target)}
        if spec.component == ComponentClass.VIRTUAL_SWITCH:
            culprits.add(ovs_name(target))
        return culprits
    culprits = {str(target)}
    if spec.target_kind == "rnic":
        # Path evidence cannot distinguish a dead RNIC from its access
        # link; blaming either is a correct localization.
        culprits |= {
            vtep_name(target),
            str(LinkId.between(target, topology.tor_of(target))),
        }
        if spec.component == ComponentClass.KERNEL:
            # A kernel-level cause (the OS restarting its network
            # service) is the host's, whichever RNIC shows it.
            culprits.add(host_component(target.host))
    elif issue is GrayIssueType.PFC_STORM:
        # Pause propagation makes the whole storm centre blameworthy:
        # an accurate localizer may pin the congested link or the
        # switch whose ports it paused.
        culprits.add(storm_center(target))
    return culprits


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
    storms need no overrides: the parameter row derives the victim set
    from the topology itself.
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
