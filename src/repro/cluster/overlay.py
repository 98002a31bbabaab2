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
from typing import Callable, Dict, List, Optional, Set

from repro.cluster.container import Container
from repro.cluster.flowtable import (
    ActionKind,
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


@dataclass
class OverlayTrace:
    """Result of walking the overlay forwarding chain.

    ``rules`` collects the flow rules whose lookup the walk hit, in hop
    order; the fabric's resolution cache replays ``rule.hit()`` on them
    for cache-served probes so packet counters advance exactly as if
    every probe had re-walked the chain.  ``tables`` collects the flow
    tables the walk consulted — the OVS table of every visited host and
    the offload table of every traversed RNIC — and ``key`` is the one
    match key it looked up in each of them: a cached resolution's
    validity is scoped to that key in those tables.  All three are
    bookkeeping, not observations, so they are excluded from equality
    and repr.
    """

    hops: List[OverlayHop] = field(default_factory=list)
    reached: bool = False
    loop: bool = False
    software_path: bool = False
    src_rnic: Optional[RnicId] = None
    dst_rnic: Optional[RnicId] = None
    rules: List[FlowRule] = field(
        default_factory=list, repr=False, compare=False
    )
    tables: List[FlowTable] = field(
        default_factory=list, repr=False, compare=False
    )
    key: Optional[FlowKey] = field(default=None, repr=False, compare=False)

    @property
    def failure_component(self) -> Optional[str]:
        """The first component where forwarding broke, if any."""
        for hop in self.hops:
            if not hop.ok:
                return hop.component
        return None

    def components(self) -> List[str]:
        """Names of every component touched, in order."""
        return [hop.component for hop in self.hops]


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
    #: The endpoint's veth component name and its DELIVER match key,
    #: built once at attach: every walk to or from it reads them.
    veth: str
    key: FlowKey


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
        self._underlay_ip_of_rnic: Dict[RnicId, str] = {}
        self._epoch = 0
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
            record = _EndpointRecord(
                endpoint=endpoint,
                overlay_ip=overlay_ip,
                vf=vf,
                host=host,
                underlay_ip=underlay_ip,
                veth=veth_name(endpoint),
                key=FlowKey(vni, overlay_ip),
            )
            self._endpoints[endpoint] = record
            action = FlowAction(ActionKind.DELIVER, local_vf=vf)
            offload = self._offload_table(rnic)
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
                _on_change=self._changed
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

    def ensure_flow(
        self, src: EndpointId, dst: EndpointId
    ) -> Optional[FlowKey]:
        """Slow-path rule installation for the src->dst overlay flow.

        Mirrors OVS first-packet behaviour: a table miss punts to the
        control plane, which installs the ENCAP rule and offloads it.
        Returns the installed key, or ``None`` when the destination is
        not (yet) registered.
        """
        if src.container.task != dst.container.task:
            raise OverlayError(
                f"{src} and {dst} belong to different tasks; "
                "cross-tenant flows are never installed"
            )
        dst_rec = self._endpoints.get(dst)
        src_rec = self._endpoints.get(src)
        if dst_rec is None or src_rec is None:
            return None
        key = dst_rec.key  # same task, so the source's VNI
        table = self._ovs_table(src_rec.host)
        existing = table.lookup(key)
        if existing is None or (
            existing.action.kind == ActionKind.ENCAP
            and existing.action.remote_underlay_ip != dst_rec.underlay_ip
        ):
            action = FlowAction(
                ActionKind.ENCAP, remote_underlay_ip=dst_rec.underlay_ip
            )
            self._install_with_offload(
                table, key, action, self._offload_table(src_rec.vf.rnic)
            )
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
        read-only reachability analysis of Algorithm 1.
        """
        trace = OverlayTrace()
        src_rec = self._endpoints.get(src)
        if src_rec is None:
            trace.hops.append(OverlayHop(
                veth_name(src), "veth", ok=False, note="source not attached"
            ))
            return trace
        vni = src_rec.key.vni

        src_veth = src_rec.veth
        if self.health(src_veth).down:
            trace.hops.append(OverlayHop(
                src_veth, "veth", ok=False, note="source veth down"
            ))
            return trace
        trace.hops.append(OverlayHop(src_veth, "veth", ok=True))

        if install_missing:
            self.ensure_flow(src, dst)

        dst_rec = self._endpoints.get(dst)
        if dst_rec is not None and dst_rec.key.vni == vni:
            key = dst_rec.key
        else:
            key = FlowKey(vni, self.overlay_ip(dst))
        trace.key = key
        dst_veth = veth_name(dst) if dst_rec is None else dst_rec.veth
        current_host = src_rec.host
        current_rnic = src_rec.vf.rnic
        trace.src_rnic = current_rnic
        visited_hosts: Set[HostId] = set()

        for _ in range(max_hops):
            if current_host in visited_hosts:
                trace.loop = True
                trace.hops.append(OverlayHop(
                    ovs_name(current_host), "ovs", ok=False,
                    note="forwarding loop",
                ))
                return trace
            visited_hosts.add(current_host)

            table = self._ovs_table(current_host)
            ovs = table.component
            if self.health(ovs).down:
                trace.hops.append(OverlayHop(
                    ovs, "ovs", ok=False, note="virtual switch down"
                ))
                return trace
            # Either branch below asks current_rnic's hardware cache
            # whether the packet rides the software path.
            offload = self._offload_table(current_rnic)
            trace.tables += (table, offload)
            rule = table.lookup(key)
            if rule is None:
                trace.hops.append(OverlayHop(
                    ovs, "ovs", ok=False, note="flow table miss"
                ))
                return trace
            rule.hit()
            trace.rules.append(rule)
            trace.hops.append(OverlayHop(ovs, "ovs", ok=True))
            vtep = offload.component

            if rule.action.kind == ActionKind.DELIVER:
                ok = dst_rec is not None and rule.action.local_vf == dst_rec.vf
                trace.hops.append(OverlayHop(
                    vtep, "vtep", ok=True,
                    software_path=self._takes_software_path(offload, key),
                ))
                if self.health(dst_veth).down:
                    trace.hops.append(OverlayHop(
                        dst_veth, "veth", ok=False,
                        note="destination veth down",
                    ))
                    return trace
                if not ok:
                    trace.hops.append(OverlayHop(
                        dst_veth, "veth", ok=False,
                        note="delivered to wrong VF",
                    ))
                    return trace
                trace.hops.append(OverlayHop(dst_veth, "veth", ok=True))
                trace.reached = True
                trace.dst_rnic = current_rnic
                trace.software_path = any(
                    h.software_path for h in trace.hops
                )
                return trace

            # ENCAP: leave through the local VTEP towards a remote RNIC.
            if self.health(vtep).down:
                trace.hops.append(OverlayHop(
                    vtep, "vtep", ok=False, note="VTEP down"
                ))
                return trace
            software = self._takes_software_path(offload, key)
            trace.hops.append(OverlayHop(
                vtep, "vtep", ok=True, software_path=software
            ))

            remote_ip = rule.action.remote_underlay_ip
            remote_rnic = self._by_underlay_ip.get(remote_ip)
            if remote_rnic is None:
                trace.hops.append(OverlayHop(
                    f"underlay:{remote_ip}", "vtep", ok=False,
                    note="encap target unknown in underlay",
                ))
                return trace
            current_rnic = remote_rnic
            current_host = remote_rnic.host
            trace.dst_rnic = remote_rnic

        trace.loop = True
        trace.hops.append(OverlayHop(
            ovs_name(current_host), "ovs", ok=False, note="hop limit exceeded"
        ))
        return trace

    def _takes_software_path(
        self, offload: RnicOffloadTable, key: FlowKey
    ) -> bool:
        """Whether a packet for ``key`` misses the RNIC hardware table."""
        if self.health(offload.component).force_software_path:
            return True
        return offload.lookup(key) is None

    def underlay_ip_of(self, rnic: RnicId) -> str:
        """Underlay IP of a physical RNIC (after any endpoint attached)."""
        if rnic not in self._underlay_ip_of_rnic:
            raise OverlayError(f"{rnic} has no attached endpoints")
        return self._underlay_ip_of_rnic[rnic]
