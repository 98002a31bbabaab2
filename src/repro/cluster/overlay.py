"""The VXLAN overlay network: VNIs, overlay IPs, and forwarding state.

The overlay gives every training task an isolated L2 segment (one VXLAN
network identifier per task).  Each endpoint gets an overlay IP; per-host
OVS flow tables map ``(VNI, overlay IP)`` to either a VXLAN encapsulation
towards the destination RNIC's underlay IP or a local delivery to a VF.
Hot rules are offloaded to the RNIC hardware table; misses take the slow
software path.

The :meth:`OverlayNetwork.trace` walk doubles as the data-plane overlay
forwarding (used by the fabric to decide whether a probe gets through and
whether it rides the hardware or software path) and as the logical
reachability analysis of Algorithm 1 in the paper (used by the localizer
to find the broken overlay hop or a forwarding loop).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.cluster.container import Container
from repro.cluster.flowtable import (
    ActionKind,
    BulkCounts,
    FlowAction,
    FlowKey,
    FlowRule,
    FlowTable,
    RnicOffloadTable,
)
from repro.cluster.identifiers import (
    EndpointId,
    HostId,
    RnicId,
    TaskId,
    VfId,
)

__all__ = [
    "ComponentHealth",
    "OverlayError",
    "OverlayHop",
    "OverlayNetwork",
    "OverlayTrace",
]


class OverlayError(RuntimeError):
    """Raised on invalid overlay operations."""


@dataclass(eq=False)
class ComponentHealth:
    """Mutable health flags a fault can set on an overlay component.

    Every flag assignment tells the owning overlay (when attached via
    ``_on_change``) which object changed — faults *and* direct test
    mutations alike — so a cached probe resolution that read this
    component is re-walked and no other.
    :meth:`OverlayNetwork.clear_health` reports the object it discards,
    for the resolutions holding it.  Compared and hashed by identity:
    it is the name of what a resolution read.
    """

    down: bool = False
    extra_latency_us: float = 0.0
    loss_rate: float = 0.0
    force_software_path: bool = False
    _on_change: Optional[Callable[["ComponentHealth"], None]] = field(
        default=None, repr=False
    )

    def __setattr__(self, name: str, value: object) -> None:
        object.__setattr__(self, name, value)
        notify = getattr(self, "_on_change", None)
        if notify is not None and name != "_on_change":
            notify(self)

    @property
    def healthy(self) -> bool:
        """Whether every flag is at its benign default."""
        return not (
            self.down
            or self.loss_rate > 0.0
            or self.extra_latency_us > 0.0
            or self.force_software_path
        )


@dataclass(frozen=True)
class OverlayHop:
    """One step of the logical forwarding chain."""

    component: str          # e.g. "veth:task-0/node-1/ep-2" or "ovs:host-3"
    kind: str               # veth | ovs | vtep
    ok: bool
    software_path: bool = False
    note: str = ""


@dataclass(slots=True)
class OverlayTrace:
    """Result of walking the overlay forwarding chain.

    ``hops`` is the chain in order; a healthy hop is one object shared
    by every walk that crosses its component.  ``rules`` collects the
    flow rules whose lookup the walk hit, in hop order; the fabric's
    resolution cache counts a packet on each of them for every
    cache-served probe (one at a time on a per-row hit, in the
    overlay's :class:`~repro.cluster.flowtable.BulkCounts` on a bulk
    answer), so :attr:`FlowRule.packets` reads exactly what re-walking
    every probe would have counted (no verdict reads the counters:
    tests and the Figure-18 example's dump do).  ``tables`` collects
    the flow tables the walk consulted — the OVS table of every
    visited host and the offload table of every traversed RNIC — and
    ``key`` is the one match key it looked up in each of them: a cached
    resolution's validity is scoped to that key in those tables.
    ``healths`` holds the
    :class:`ComponentHealth` of each component a reached walk crossed,
    in hop order.  The four are bookkeeping, not observations, so they
    are excluded from equality and repr.  Every sequence is a tuple.
    """

    hops: Tuple[OverlayHop, ...] = ()
    reached: bool = False
    loop: bool = False
    software_path: bool = False
    src_rnic: Optional[RnicId] = None
    dst_rnic: Optional[RnicId] = None
    rules: Tuple[FlowRule, ...] = field(
        default=(), repr=False, compare=False
    )
    tables: Tuple[FlowTable, ...] = field(
        default=(), repr=False, compare=False
    )
    key: Optional[FlowKey] = field(default=None, repr=False, compare=False)
    healths: Tuple[ComponentHealth, ...] = field(
        default=(), repr=False, compare=False
    )

    @property
    def failure_component(self) -> Optional[str]:
        """The first component where forwarding broke, if any."""
        for hop in self.hops:
            if not hop.ok:
                return hop.component
        return None


def veth_name(endpoint: EndpointId) -> str:
    """Component name of an endpoint's veth/CNI attachment."""
    return f"veth:{endpoint}"


def ovs_name(host: HostId) -> str:
    """Component name of a host's virtual switch."""
    return f"ovs:{host}"


def vtep_name(rnic: RnicId) -> str:
    """Component name of an RNIC's VXLAN tunnel endpoint."""
    return f"vtep:{rnic}"


@dataclass(frozen=True)
class _EndpointRecord:
    endpoint: EndpointId
    overlay_ip: str
    vf: VfId
    host: HostId
    underlay_ip: str
    #: What every walk to or from the endpoint reads, found once at
    #: attach: its veth component name, its DELIVER match key, its
    #: host's OVS table and its RNIC's offload table.
    veth: str
    key: FlowKey
    ovs: FlowTable
    offload: RnicOffloadTable


class OverlayNetwork:
    """Overlay state for every task sharing the physical fabric."""

    def __init__(self) -> None:
        self._next_vni = 100
        self._task_vni: Dict[TaskId, int] = {}
        self._ovs: Dict[HostId, FlowTable] = {}
        self._offload: Dict[RnicId, RnicOffloadTable] = {}
        self._endpoints: Dict[EndpointId, _EndpointRecord] = {}
        self._by_underlay_ip: Dict[str, RnicId] = {}
        self._registered: Set[EndpointId] = set()
        self._health: Dict[str, ComponentHealth] = {}
        #: The healthy hop of each component, on the hardware and on
        #: the software path (a veth's goes when its endpoint detaches),
        #: and the ENCAP action towards each underlay IP.
        self._ok_hops: Dict[str, OverlayHop] = {}
        self._software_hops: Dict[str, OverlayHop] = {}
        self._encaps: Dict[str, FlowAction] = {}
        self._underlay_ip_of_rnic: Dict[RnicId, str] = {}
        #: What bulk-answered probes counted on this overlay's rules.
        self.bulk_counts = BulkCounts()
        self._epoch = 0
        #: One bound :meth:`_changed` for every health object to call.
        self._notify = self._changed
        self._watchers: List[
            Callable[[object, Optional[FlowKey]], None]
        ] = []

    # ------------------------------------------------------------------
    # Change tracking (drives FlowResolutionCache invalidation)
    # ------------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Monotone counter of *every* forwarding-relevant overlay change.

        Bumped by endpoint attach/detach, any OVS or RNIC-offload table
        mutation, and any component-health flag change, anywhere.  Only
        *unreached* resolutions (table miss, loop, unknown encap target,
        unattached endpoint) are keyed on it: what would make them
        reachable is in no table their walk consulted.  A reached
        resolution is told of the changes to what it read (see
        :meth:`add_watcher`).
        """
        return self._epoch

    def add_watcher(
        self, watcher: Callable[[object, Optional[FlowKey]], None]
    ) -> None:
        """Tell ``watcher(source, key)`` what each change changed: a
        flow table and the key whose rule appeared, was replaced or
        disappeared; a flow table and ``None`` when the whole table
        changed (:meth:`FlowTable.touch`, :meth:`FlowTable.clear`); or
        a :class:`ComponentHealth` and ``None`` when its flags changed
        or :meth:`clear_health` discarded it."""
        self._watchers.append(watcher)

    def _changed(
        self, source: object, key: Optional[FlowKey] = None
    ) -> None:
        self._epoch += 1
        for watcher in self._watchers:
            watcher(source, key)

    # ------------------------------------------------------------------
    # Task / endpoint registration
    # ------------------------------------------------------------------

    def register_task(self, task_id: TaskId) -> int:
        """Assign (or return) the VNI of ``task_id``."""
        if task_id not in self._task_vni:
            self._task_vni[task_id] = self._next_vni
            self._next_vni += 1
        return self._task_vni[task_id]

    def vni_of(self, task_id: TaskId) -> int:
        """The VNI assigned to ``task_id``."""
        if task_id not in self._task_vni:
            raise OverlayError(f"{task_id} has no VNI; register it first")
        return self._task_vni[task_id]

    @staticmethod
    def overlay_ip(endpoint: EndpointId) -> str:
        """Deterministic overlay IP, unique within a task's VNI."""
        rank = endpoint.container.rank
        return f"192.{rank // 256}.{rank % 256}.{endpoint.slot + 1}"

    def attach_container(
        self, container: Container, rnic_underlay_ips: Dict[RnicId, str]
    ) -> None:
        """Wire up a container's endpoints: install local DELIVER rules.

        Called when the container finishes network-stack initialization.
        ``rnic_underlay_ips`` maps the physical RNICs the container's VFs
        live on to their underlay IPs.
        """
        vni = self.register_task(container.id.task)
        host = container.host
        table = self._ovs_table(host)
        for endpoint in container.endpoints():
            vf = container.vf_of(endpoint)
            rnic = vf.rnic
            if rnic not in rnic_underlay_ips:
                raise OverlayError(f"no underlay IP given for {rnic}")
            underlay_ip = rnic_underlay_ips[rnic]
            self._by_underlay_ip[underlay_ip] = rnic
            self._underlay_ip_of_rnic[rnic] = underlay_ip
            overlay_ip = self.overlay_ip(endpoint)
            offload = self._offload_table(rnic)
            record = _EndpointRecord(
                endpoint=endpoint,
                overlay_ip=overlay_ip,
                vf=vf,
                host=host,
                underlay_ip=underlay_ip,
                veth=veth_name(endpoint),
                key=FlowKey(vni, overlay_ip),
                ovs=table,
                offload=offload,
            )
            self._endpoints[endpoint] = record
            action = FlowAction(ActionKind.DELIVER, local_vf=vf)
            self._install_with_offload(table, record.key, action, offload)
            self._registered.add(endpoint)
            offload.touch()
        table.touch()

    def detach_container(self, container: Container) -> None:
        """Remove all state for a terminated container.

        Always touches the tables of the container's host and RNICs (and
        so bumps :attr:`epoch`) — even when the container held no
        attached endpoints — so probes can never resolve through a
        detached endpoint's cached trace, and a source that migrates
        away never keeps resolving through the ENCAP rules it left on
        its old host (see
        :class:`~repro.network.fabric.FlowResolutionCache`).
        """
        self.vni_of(container.id.task)  # raises for a task never attached
        table = self._ovs_table(container.host)
        for endpoint in container.endpoints():
            self._offload_table(container.vf_of(endpoint).rnic).touch()
            record = self._endpoints.pop(endpoint, None)
            self._registered.discard(endpoint)
            if record is None:
                continue
            self._ok_hops.pop(record.veth, None)
            table.remove(record.key)
            self._offload_table(record.vf.rnic).remove(record.key)
        table.touch()

    def is_registered(self, endpoint: EndpointId) -> bool:
        """Whether ``endpoint`` has been attached (probe-able)."""
        return endpoint in self._registered

    def record_of(self, endpoint: EndpointId) -> _EndpointRecord:
        """Internal record (overlay IP, VF, host, underlay IP)."""
        if endpoint not in self._endpoints:
            raise OverlayError(f"{endpoint} is not attached")
        return self._endpoints[endpoint]

    def rnic_of(self, endpoint: EndpointId) -> RnicId:
        """The physical RNIC an endpoint transmits on."""
        return self.record_of(endpoint).vf.rnic

    # ------------------------------------------------------------------
    # Tables and health (the surface faults manipulate)
    # ------------------------------------------------------------------

    def _ovs_table(self, host: HostId) -> FlowTable:
        table = self._ovs.get(host)
        if table is None:
            table = self._ovs[host] = FlowTable(name=ovs_name(host))
            table.on_mutate = self._changed
        return table

    def _offload_table(self, rnic: RnicId) -> RnicOffloadTable:
        table = self._offload.get(rnic)
        if table is None:
            device = str(rnic)
            table = self._offload[rnic] = RnicOffloadTable(
                name=f"offload:{device}", component=vtep_name(rnic),
                device=device,
            )
            table.on_mutate = self._changed
        return table

    def ovs_table(self, host: HostId) -> FlowTable:
        """The OVS software flow table of ``host``."""
        return self._ovs_table(host)

    def offload_table(self, rnic: RnicId) -> RnicOffloadTable:
        """The hardware flow cache of ``rnic``."""
        return self._offload_table(rnic)

    def flow_table_sizes(self) -> Dict[HostId, int]:
        """Flow-table item counts per host (the paper's Figure 6)."""
        return {host: len(table) for host, table in self._ovs.items()}

    # ------------------------------------------------------------------
    # Read-only inventory (the surface the static verifier inspects)
    # ------------------------------------------------------------------

    def hosts_with_tables(self) -> List[HostId]:
        """Hosts that have materialized an OVS table, sorted."""
        return sorted(self._ovs)

    def offload_rnics(self) -> List[RnicId]:
        """RNICs that have materialized a hardware flow cache, sorted."""
        return sorted(self._offload)

    def attached_endpoints(self) -> List[EndpointId]:
        """Every endpoint currently attached to the overlay, sorted."""
        return sorted(self._endpoints)

    def underlay_map(self) -> Dict[str, RnicId]:
        """Copy of the underlay-IP -> RNIC resolution table."""
        return dict(self._by_underlay_ip)

    def rnic_underlay_ips(self) -> Dict[RnicId, str]:
        """Copy of the RNIC -> underlay-IP mapping (VTEP addresses)."""
        return dict(self._underlay_ip_of_rnic)

    def health(self, component: str) -> ComponentHealth:
        """Mutable health flags for a named overlay component."""
        health = self._health.get(component)
        if health is None:
            health = self._health[component] = ComponentHealth(
                _on_change=self._notify
            )
        return health

    def clear_health(self, component: str) -> None:
        """Reset a component to healthy."""
        dropped = self._health.pop(component, None)
        if dropped is not None:
            self._changed(dropped)  # for the resolutions holding it

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------

    def _ok_hop(
        self, component: str, kind: str, software_path: bool = False
    ) -> OverlayHop:
        """The one healthy hop of a component."""
        hops = self._software_hops if software_path else self._ok_hops
        hop = hops.get(component)
        if hop is None:
            hop = hops[component] = OverlayHop(
                component, kind, ok=True, software_path=software_path
            )
        return hop

    @staticmethod
    def _same_task(src: EndpointId, dst: EndpointId) -> None:
        if src.container.task != dst.container.task:
            raise OverlayError(
                f"{src} and {dst} belong to different tasks; "
                "cross-tenant flows are never installed"
            )

    def ensure_flow(
        self, src: EndpointId, dst: EndpointId
    ) -> Optional[FlowKey]:
        """Slow-path rule installation for the src->dst overlay flow.

        Mirrors OVS first-packet behaviour: a table miss punts to the
        control plane, which installs the ENCAP rule and offloads it.
        Returns the installed key, or ``None`` when the destination is
        not (yet) registered.
        """
        self._same_task(src, dst)
        return self._ensure(self._endpoints.get(src), self._endpoints.get(dst))

    def echo_flow(
        self, src: EndpointId, dst: EndpointId
    ) -> Optional[Tuple[FlowKey, _EndpointRecord]]:
        """The flow an echo from ``src`` replies on, installed as the
        destination's first reply packet would: its key (the source's
        DELIVER key) and the destination's record, whose OVS and
        offload tables hold it; ``None`` unless both are attached."""
        src_rec = self._endpoints.get(src)
        dst_rec = self._endpoints.get(dst)
        if src_rec is None or dst_rec is None:
            return None
        self._same_task(dst, src)
        return self._ensure(dst_rec, src_rec), dst_rec

    def _ensure(
        self,
        src_rec: Optional[_EndpointRecord],
        dst_rec: Optional[_EndpointRecord],
    ) -> Optional[FlowKey]:
        if dst_rec is None or src_rec is None:
            return None
        key = dst_rec.key  # same task, so the source's VNI
        table = src_rec.ovs
        existing = table.lookup(key)
        if existing is None or (
            existing.action.kind == ActionKind.ENCAP
            and existing.action.remote_underlay_ip != dst_rec.underlay_ip
        ):
            remote = dst_rec.underlay_ip
            action = self._encaps.get(remote)
            if action is None:
                action = self._encaps[remote] = FlowAction(
                    ActionKind.ENCAP, remote_underlay_ip=remote
                )
            self._install_with_offload(table, key, action, src_rec.offload)
        return key

    def _install_with_offload(
        self,
        table: FlowTable,
        key: FlowKey,
        action: FlowAction,
        offload: RnicOffloadTable,
    ) -> None:
        """Install an OVS rule and mirror it into the RNIC hardware cache.

        When the RNIC cannot offload (its VTEP is flagged for the
        software path), the rule stays software-only — which is exactly
        what a flow-table dump will later reveal.
        """
        rule = table.install(key, action)
        if self.health(offload.component).force_software_path:
            rule.offloaded = False
            rule.offloaded_to = None
            return
        rule.offloaded = True
        rule.offloaded_to = offload.device
        offload.install(key, action)

    def first_contact(
        self, src: EndpointId, dst: EndpointId
    ) -> Tuple[OverlayTrace, Optional[Tuple[FlowKey, _EndpointRecord]]]:
        """What a probe's first packet does, as a resolution cache sees
        it: the data-plane walk (:meth:`trace`, installing the forward
        rule), then the echo reply's reverse install (:meth:`echo_flow`).
        """
        return self.trace(src, dst), self.echo_flow(src, dst)

    def trace(
        self,
        src: EndpointId,
        dst: EndpointId,
        install_missing: bool = True,
        max_hops: int = 16,
    ) -> OverlayTrace:
        """Walk the logical overlay forwarding chain from ``src`` to ``dst``.

        With ``install_missing=True`` this behaves like the data plane
        (slow-path resolution on first use); with ``False`` it is the
        read-only reachability analysis of Algorithm 1.  The endpoint
        records carry their tables, and a component's health object is
        looked up only where the walk reads it (so a walk creates the
        ones it always did).
        """
        src_rec = self._endpoints.get(src)
        if src_rec is None:
            return OverlayTrace(hops=(OverlayHop(
                veth_name(src), "veth", ok=False, note="source not attached"
            ),))
        health = self.health(src_rec.veth)
        if health.down:
            return OverlayTrace(hops=(OverlayHop(
                src_rec.veth, "veth", ok=False, note="source veth down"
            ),))
        if install_missing:
            self.ensure_flow(src, dst)
        dst_rec = self._endpoints.get(dst)

        vni = src_rec.key.vni
        if dst_rec is not None and dst_rec.key.vni == vni:
            key = dst_rec.key
        else:
            key = FlowKey(vni, self.overlay_ip(dst))
        dst_veth = veth_name(dst) if dst_rec is None else dst_rec.veth
        hops: List[OverlayHop] = [self._ok_hop(src_rec.veth, "veth")]
        healths = [health]
        rules: List[FlowRule] = []
        tables: List[FlowTable] = []
        src_rnic = current_rnic = src_rec.vf.rnic
        current_host = src_rec.host
        table, offload = src_rec.ovs, src_rec.offload
        dst_rnic: Optional[RnicId] = None
        reached = loop = software = False
        visited: Set[FlowTable] = set()  # a host's one OVS table

        for _ in range(max_hops):
            ovs = table.component
            if table in visited:
                loop = True
                hops.append(OverlayHop(
                    ovs, "ovs", ok=False, note="forwarding loop",
                ))
                break
            visited.add(table)

            health = self.health(ovs)
            if health.down:
                hops.append(OverlayHop(
                    ovs, "ovs", ok=False, note="virtual switch down"
                ))
                break
            tables += (table, offload)
            rule = table.lookup(key)
            if rule is None:
                hops.append(OverlayHop(
                    ovs, "ovs", ok=False, note="flow table miss"
                ))
                break
            rule.hit()
            rules.append(rule)
            hops.append(self._ok_hop(ovs, "ovs"))
            healths.append(health)
            vtep = offload.component
            health = self.health(vtep)
            deliver = rule.action.kind == ActionKind.DELIVER
            if not deliver and health.down:
                # ENCAP leaves through the local VTEP.
                hops.append(OverlayHop(
                    vtep, "vtep", ok=False, note="VTEP down"
                ))
                break
            # The RNIC's hardware cache decides whether the packet
            # rides the software path.
            slow = health.force_software_path or offload.lookup(key) is None
            hops.append(self._ok_hop(vtep, "vtep", slow))
            healths.append(health)
            software |= slow

            if deliver:
                ok = dst_rec is not None and rule.action.local_vf == dst_rec.vf
                health = self.health(dst_veth)
                if health.down:
                    hops.append(OverlayHop(
                        dst_veth, "veth", ok=False,
                        note="destination veth down",
                    ))
                    break
                if not ok:
                    hops.append(OverlayHop(
                        dst_veth, "veth", ok=False,
                        note="delivered to wrong VF",
                    ))
                    break
                hops.append(self._ok_hop(dst_veth, "veth"))
                healths.append(health)
                reached = True
                dst_rnic = current_rnic
                break

            # ENCAP: on towards a remote RNIC.
            remote_ip = rule.action.remote_underlay_ip
            remote_rnic = self._by_underlay_ip.get(remote_ip)
            if remote_rnic is None:
                hops.append(OverlayHop(
                    f"underlay:{remote_ip}", "vtep", ok=False,
                    note="encap target unknown in underlay",
                ))
                break
            current_rnic = dst_rnic = remote_rnic
            current_host = remote_rnic.host
            table = self._ovs_table(current_host)
            offload = self._offload_table(current_rnic)
        else:
            loop = True
            hops.append(OverlayHop(
                ovs_name(current_host), "ovs", ok=False,
                note="hop limit exceeded",
            ))

        return OverlayTrace(
            hops=tuple(hops), reached=reached, loop=loop,
            software_path=reached and software,
            src_rnic=src_rnic, dst_rnic=dst_rnic, rules=tuple(rules),
            tables=tuple(tables), key=key,
            healths=tuple(healths) if reached else (),
        )

    def underlay_ip_of(self, rnic: RnicId) -> str:
        """Underlay IP of a physical RNIC (after any endpoint attached)."""
        if rnic not in self._underlay_ip_of_rnic:
            raise OverlayError(f"{rnic} has no attached endpoints")
        return self._underlay_ip_of_rnic[rnic]
