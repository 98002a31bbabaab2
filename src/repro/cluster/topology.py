"""Rail-optimized data-center topology.

Models the two-tier Clos fabric used for LLM training pods (§3.2 of the
paper, Figure 10; see also Alibaba HPN and NVIDIA SuperPOD designs):

* Hosts are grouped into *segments*.  Each host carries ``rails_per_host``
  RNICs; the RNIC with rail index *r* connects to the *r*-th top-of-rack
  (ToR) switch of its segment.  ToR switches therefore form *rails*.
* Every ToR uplinks to every spine switch, and inter-segment traffic is
  spread over spines by ECMP.

With this wiring, same-rail inter-host communication crosses a single ToR
(intra-segment) or ToR–spine–ToR (inter-segment), while cross-rail
communication is what NCCL avoids by bouncing through NVLink first — the
property SkeletonHunter's preload pruning relies on (§5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, NamedTuple, Sequence, Tuple, Union

import networkx as nx

from repro.cluster.identifiers import HostId, LinkId, RnicId, SwitchId

__all__ = [
    "FatTreeTopology",
    "RailOptimizedTopology",
    "TopologyError",
    "UnderlayPath",
]


class TopologyError(ValueError):
    """Raised for invalid topology parameters or unknown devices."""


@dataclass(frozen=True)
class UnderlayPath:
    """An ordered underlay route: device names joined by physical links.

    ``devices`` starts at the source RNIC name and ends at the destination
    RNIC name; ``links`` has one entry per hop, so
    ``len(links) == len(devices) - 1``.
    """

    devices: Tuple[str, ...]
    links: Tuple[LinkId, ...]

    def __post_init__(self) -> None:
        if len(self.links) != len(self.devices) - 1:
            raise TopologyError(
                f"path with {len(self.devices)} devices needs "
                f"{len(self.devices) - 1} links, got {len(self.links)}"
            )

    @staticmethod
    def through(devices: Sequence[object]) -> "UnderlayPath":
        """Build a path from an ordered device sequence."""
        names = tuple(str(d) for d in devices)
        links = tuple(
            LinkId.between(names[i], names[i + 1])
            for i in range(len(names) - 1)
        )
        return UnderlayPath(devices=names, links=links)

    @property
    def hops(self) -> int:
        """Number of physical links traversed."""
        return len(self.links)

    def switches(self) -> Tuple[str, ...]:
        """Device names excluding the two endpoint RNICs."""
        return self.devices[1:-1]


class _Tor(NamedTuple):
    """A ToR as a path uses it: its name and its uplink to each spine."""

    switch: SwitchId
    name: str
    uplinks: Tuple[LinkId, ...]


class _Port(NamedTuple):
    """An RNIC as a path uses it: its name, access link and ToR."""

    name: str
    access: LinkId
    tor: _Tor


class _ClosTopology:
    """Shared surface of the two-tier Clos fabrics.

    Subclass constructors validate their parameters, set the structural
    attributes (``hosts``, ``spines``, ``num_segments``,
    ``hosts_per_segment``, ``rails_per_host``, ``num_spines``) and call
    :meth:`_wire` with their ToRs and which ToR each RNIC attaches to;
    everything else — path composition, graph export, structure
    queries — is identical across wirings.
    """

    #: Whether the wiring satisfies the rail invariants the preload
    #: pruning and the rail verify passes assume.  Non-rail fabrics set
    #: this False so those passes skip instead of failing.
    is_rail_optimized = False

    hosts: List[HostId]
    spines: List[SwitchId]
    num_segments: int
    hosts_per_segment: int
    rails_per_host: int
    num_spines: int

    def _wire(
        self, tors: List[SwitchId], rows: Sequence[Sequence[int]]
    ) -> None:
        """Attach RNIC ``rail`` of each host in segment ``seg`` to
        ``tors[rows[seg][rail]]``, and every ToR to every spine.

        Every device is named and every link built once, here: a path
        is composed from these pieces (:meth:`_path`), not formatted.
        """
        self._spine_names = tuple(str(spine) for spine in self.spines)
        self._tor_records: List[_Tor] = []
        for tor in tors:
            name = str(tor)
            self._tor_records.append(_Tor(tor, name, tuple(
                LinkId.between(name, spine) for spine in self._spine_names
            )))
        self._ports: List[_Port] = []
        for host in self.hosts:
            prefix = f"{host}/rnic-"  # str(RnicId(host, rail)), per rail
            for rail, index in enumerate(rows[self.segment_of(host)]):
                name = f"{prefix}{rail}"
                tor = self._tor_records[index]
                self._ports.append(
                    _Port(name, LinkId.between(name, tor.name), tor)
                )
        self._links: List[LinkId] = [port.access for port in self._ports]
        for tor in self._tor_records:
            self._links += tor.uplinks
        self._link_set = frozenset(self._links)
        #: Every path composed so far, by (source port, destination
        #: port, spine): a path is one shared, immutable object however
        #: many pairs and callers ride it, and the map holds at most
        #: the fabric's port pairs times its spines.
        self._paths: Dict[int, UnderlayPath] = {}
        #: The composed paths by each link they cross and each switch
        #: they pass, and how many of :attr:`_paths` are in them (built
        #: on the first question, then caught up with what was composed
        #: since: composing a path costs nothing extra).
        self._crossing: Dict[object, List[UnderlayPath]] = {}
        self._met = 0

    def _index(self, rnic: RnicId) -> int:
        """The index of ``rnic``'s port in :attr:`_ports`."""
        if not 0 <= rnic.rail < self.rails_per_host:
            raise TopologyError(f"rail {rnic.rail} out of range for {rnic}")
        if not 0 <= rnic.host.index < len(self.hosts):
            raise TopologyError(f"unknown host {rnic.host}")
        return rnic.host.index * self.rails_per_host + rnic.rail

    def _port(self, rnic: RnicId) -> _Port:
        return self._ports[self._index(rnic)]

    def tor_of(self, rnic: RnicId) -> SwitchId:
        """The ToR switch an RNIC attaches to."""
        return self._port(rnic).tor.switch

    def tors(self) -> List[SwitchId]:
        """All ToR switches, sorted by index."""
        return [tor.switch for tor in self._tor_records]

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------

    @property
    def num_hosts(self) -> int:
        """Total hosts in the fabric."""
        return len(self.hosts)

    @property
    def num_rnics(self) -> int:
        """Total physical RNICs in the fabric."""
        return self.num_hosts * self.rails_per_host

    def segment_of(self, host: HostId) -> int:
        """The segment index a host belongs to."""
        if not 0 <= host.index < self.num_hosts:
            raise TopologyError(f"unknown host {host}")
        return host.index // self.hosts_per_segment

    def rnics_of(self, host: HostId) -> List[RnicId]:
        """All physical RNICs on ``host`` in rail order."""
        self.segment_of(host)  # validates
        return [RnicId(host, rail) for rail in range(self.rails_per_host)]

    def all_rnics(self) -> List[RnicId]:
        """Every physical RNIC, sorted by (host, rail)."""
        return [r for h in self.hosts for r in self.rnics_of(h)]

    def links(self) -> List[LinkId]:
        """All physical links."""
        return list(self._links)

    def has_link(self, link: LinkId) -> bool:
        """Whether ``link`` exists in the fabric."""
        return link in self._link_set

    def device_names(self) -> List[str]:
        """Names of every device: RNICs, ToRs, and spines."""
        names = [port.name for port in self._ports]
        names += [tor.name for tor in self._tor_records]
        names += self._spine_names
        return names

    # ------------------------------------------------------------------
    # Path computation
    # ------------------------------------------------------------------

    def ecmp_paths(self, src: RnicId, dst: RnicId) -> List[UnderlayPath]:
        """All equal-cost underlay paths between two RNICs.

        * Same RNIC: zero-hop path.
        * Same ToR (same segment + rail): one path via that ToR.
        * Different ToRs: one path per spine switch (ECMP fan-out), in
          spine order.
        """
        a, b = self._index(src), self._index(dst)
        return [self._path(a, b, i) for i in range(self._width(a, b))]

    def pick_path(
        self, src: RnicId, dst: RnicId, flow_hash: int = 0
    ) -> UnderlayPath:
        """Deterministic ECMP path selection by flow hash: the candidate
        ``ecmp_paths(src, dst)[flow_hash % len(...)]``, built alone."""
        a, b = self._index(src), self._index(dst)
        return self._path(a, b, flow_hash % self._width(a, b))

    def _width(self, a: int, b: int) -> int:
        ports = self._ports
        return 1 if ports[a].tor is ports[b].tor else self.num_spines

    def _path(self, a: int, b: int, spine: int) -> UnderlayPath:
        """The ``spine``-th candidate from port ``a`` to port ``b``:
        composed once, from the names and links :meth:`_wire` built."""
        key = (a * len(self._ports) + b) * self.num_spines + spine
        path = self._paths.get(key)
        if path is None:
            path = self._paths[key] = self._compose(
                self._ports[a], self._ports[b], spine
            )
        return path

    def _compose(self, a: _Port, b: _Port, spine: int) -> UnderlayPath:
        if a is b:
            return UnderlayPath((a.name,), ())
        if a.tor is b.tor:
            return UnderlayPath(
                (a.name, a.tor.name, b.name), (a.access, b.access)
            )
        return UnderlayPath(
            (a.name, a.tor.name, self._spine_names[spine], b.tor.name,
             b.name),
            (a.access, a.tor.uplinks[spine], b.tor.uplinks[spine],
             b.access),
        )

    def paths_meeting(
        self, part: Union[LinkId, SwitchId]
    ) -> List[UnderlayPath]:
        """Every composed path that crosses the link or passes the
        switch ``part``."""
        crossing = self._crossing
        if self._met < len(self._paths):
            for path in islice(self._paths.values(), self._met, None):
                for met in (*path.links, *path.devices[1:-1]):
                    held = crossing.get(met)
                    if held is None:
                        crossing[met] = [path]
                    else:
                        held.append(path)
            self._met = len(self._paths)
        return crossing.get(
            part if isinstance(part, LinkId) else str(part), []
        )

    def graph(self) -> nx.Graph:
        """The fabric as an undirected networkx graph (for tomography)."""
        g = nx.Graph()
        g.add_nodes_from(self.device_names())
        for link in self._links:
            g.add_edge(link.a, link.b, link=link)
        return g

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(segments={self.num_segments}, "
            f"hosts/segment={self.hosts_per_segment}, "
            f"rails={self.rails_per_host}, spines={self.num_spines})"
        )


class RailOptimizedTopology(_ClosTopology):
    """The physical fabric: segments x rails of ToRs under shared spines.

    Parameters
    ----------
    num_segments:
        Number of host segments (each segment owns one ToR per rail).
    hosts_per_segment:
        Hosts attached to each segment.
    rails_per_host:
        RNICs per host; also the number of ToRs per segment.
    num_spines:
        Spine switches shared by all ToRs (ECMP width).
    """

    is_rail_optimized = True

    def __init__(
        self,
        num_segments: int = 2,
        hosts_per_segment: int = 8,
        rails_per_host: int = 8,
        num_spines: int = 4,
    ) -> None:
        if num_segments < 1:
            raise TopologyError("need at least one segment")
        if hosts_per_segment < 1:
            raise TopologyError("need at least one host per segment")
        if rails_per_host < 1:
            raise TopologyError("need at least one rail per host")
        if num_spines < 1:
            raise TopologyError("need at least one spine switch")

        self.num_segments = num_segments
        self.hosts_per_segment = hosts_per_segment
        self.rails_per_host = rails_per_host
        self.num_spines = num_spines

        self.hosts = [
            HostId(i) for i in range(num_segments * hosts_per_segment)
        ]
        self.spines = [
            SwitchId("spine", s) for s in range(num_spines)
        ]
        self._tors: Dict[Tuple[int, int], SwitchId] = {}
        for seg in range(num_segments):
            for rail in range(rails_per_host):
                self._tors[(seg, rail)] = SwitchId(
                    "tor", seg * rails_per_host + rail
                )
        self._wire(list(self._tors.values()), [
            range(seg * rails_per_host, (seg + 1) * rails_per_host)
            for seg in range(num_segments)
        ])


class FatTreeTopology(_ClosTopology):
    """Plain (non-rail-optimized) leaf-spine fabric.

    Every RNIC of every host in a segment attaches to that segment's
    single leaf switch — no rail striping — and every leaf uplinks to
    every spine.  This is the classic fat-tree edge wiring: a host's
    NICs share one ToR, so same-"rail" traffic between segments still
    fans out over all spines, but the rail-locality invariants the
    preload pruning and the rail verify passes rely on do not hold
    (``is_rail_optimized`` is False and those passes skip).

    Exposes the exact :class:`RailOptimizedTopology` surface —
    ``rails_per_host`` degenerates to "NIC index within the host".
    """

    is_rail_optimized = False

    def __init__(
        self,
        num_segments: int = 2,
        hosts_per_segment: int = 8,
        rnics_per_host: int = 8,
        num_spines: int = 4,
    ) -> None:
        if num_segments < 1:
            raise TopologyError("need at least one segment")
        if hosts_per_segment < 1:
            raise TopologyError("need at least one host per segment")
        if rnics_per_host < 1:
            raise TopologyError("need at least one RNIC per host")
        if num_spines < 1:
            raise TopologyError("need at least one spine switch")

        self.num_segments = num_segments
        self.hosts_per_segment = hosts_per_segment
        self.rails_per_host = rnics_per_host
        self.num_spines = num_spines

        self.hosts = [
            HostId(i) for i in range(num_segments * hosts_per_segment)
        ]
        self.spines = [
            SwitchId("spine", s) for s in range(num_spines)
        ]
        self._wire(
            [SwitchId("tor", seg) for seg in range(num_segments)],
            [[seg] * rnics_per_host for seg in range(num_segments)],
        )
