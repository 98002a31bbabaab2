"""Physical hosts, GPUs, and SR-IOV RNICs.

A host carries an equal number of GPUs and RNICs (one dedicated RNIC per
GPU, the standard wiring for LLM pods — §3.1 of the paper).  Each RNIC is
carved into SR-IOV virtual functions (VFs); binding a container to an RNIC
means allocating one of its VFs, which is how the production system
described in the paper shares NICs among containers (§7, footnote 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster.identifiers import ContainerId, HostId, RnicId, VfId

__all__ = ["Gpu", "Host", "HostInventoryError", "Rnic"]


class HostInventoryError(RuntimeError):
    """Raised when GPU/VF allocation requests cannot be satisfied."""


@dataclass
class Gpu:
    """A GPU slot on a host; ``bound_to`` is the owning container if any."""

    host: HostId
    index: int
    bound_to: Optional[ContainerId] = None

    @property
    def free(self) -> bool:
        """Whether the GPU is unallocated."""
        return self.bound_to is None

    def __str__(self) -> str:
        return f"{self.host}/gpu-{self.index}"


class Rnic:
    """A physical RDMA NIC with a pool of SR-IOV virtual functions."""

    def __init__(
        self, rnic_id: RnicId, num_vfs: int = 128, bandwidth_gbps: float = 200.0
    ) -> None:
        if num_vfs < 1:
            raise HostInventoryError("an RNIC needs at least one VF")
        self.id = rnic_id
        self.num_vfs = num_vfs
        self.bandwidth_gbps = bandwidth_gbps
        self.underlay_ip = f"10.{rnic_id.host.index}.{rnic_id.rail}.1"
        self._vf_owner: Dict[int, ContainerId] = {}

    @property
    def rail(self) -> int:
        """Rail index (decides the ToR the RNIC attaches to)."""
        return self.id.rail

    @property
    def allocated_vfs(self) -> int:
        """Number of VFs currently bound to containers."""
        return len(self._vf_owner)

    def allocate_vf(self, owner: ContainerId) -> VfId:
        """Bind the lowest free VF to ``owner``."""
        for index in range(self.num_vfs):
            if index not in self._vf_owner:
                self._vf_owner[index] = owner
                return VfId(self.id, index)
        raise HostInventoryError(f"{self.id} has no free VFs")

    def release_vf(self, vf: VfId) -> None:
        """Return a VF to the pool."""
        if vf.rnic != self.id:
            raise HostInventoryError(f"{vf} does not belong to {self.id}")
        if vf.index not in self._vf_owner:
            raise HostInventoryError(f"{vf} is not allocated")
        del self._vf_owner[vf.index]

    def owner_of(self, vf: VfId) -> Optional[ContainerId]:
        """The container owning ``vf``, or ``None``."""
        return self._vf_owner.get(vf.index)

    def release_all(self, owner: ContainerId) -> int:
        """Release every VF held by ``owner``; returns the count."""
        victims = [i for i, o in self._vf_owner.items() if o == owner]
        for index in victims:
            del self._vf_owner[index]
        return len(victims)

    def __str__(self) -> str:
        return str(self.id)


@dataclass
class Host:
    """A physical host: GPUs plus one RNIC per rail."""

    id: HostId
    gpus: List[Gpu] = field(default_factory=list)
    rnics: List[Rnic] = field(default_factory=list)
    #: ``len(free_gpus())``, kept by :meth:`allocate` and
    #: :meth:`release`: what placement reads of every host.
    num_free_gpus: int = field(init=False)

    def __post_init__(self) -> None:
        self.num_free_gpus = len(self.free_gpus())

    @staticmethod
    def build(
        host_id: HostId,
        num_gpus: int = 8,
        num_vfs_per_rnic: int = 128,
        bandwidth_gbps: float = 200.0,
    ) -> "Host":
        """Construct a host with ``num_gpus`` GPUs and matching RNICs."""
        if num_gpus < 1:
            raise HostInventoryError("a host needs at least one GPU")
        gpus = [Gpu(host_id, i) for i in range(num_gpus)]
        rnics = [
            Rnic(RnicId(host_id, rail), num_vfs_per_rnic, bandwidth_gbps)
            for rail in range(num_gpus)
        ]
        return Host(id=host_id, gpus=gpus, rnics=rnics)

    @property
    def num_gpus(self) -> int:
        """GPU slots on this host."""
        return len(self.gpus)

    def free_gpus(self) -> List[Gpu]:
        """GPUs not bound to any container."""
        return [g for g in self.gpus if g.free]

    def rnic(self, rail: int) -> Rnic:
        """The RNIC on ``rail``."""
        if not 0 <= rail < len(self.rnics):
            raise HostInventoryError(f"{self.id} has no rail {rail}")
        return self.rnics[rail]

    def allocate(
        self, owner: ContainerId, num_gpus: int
    ) -> "HostAllocation":
        """Bind ``num_gpus`` GPUs plus one VF on each matching rail.

        GPUs and RNIC rails are paired one-to-one, so requesting four GPUs
        yields VFs on rails of the chosen GPUs.
        """
        free = self.free_gpus()
        if len(free) < num_gpus:
            raise HostInventoryError(
                f"{self.id} has {len(free)} free GPUs, need {num_gpus}"
            )
        chosen = free[:num_gpus]
        vfs = []
        for gpu in chosen:
            gpu.bound_to = owner
            self.num_free_gpus -= 1
            vfs.append(self.rnics[gpu.index].allocate_vf(owner))
        return HostAllocation(host=self.id, owner=owner,
                              gpu_indices=[g.index for g in chosen], vfs=vfs)

    def release(self, allocation: "HostAllocation") -> None:
        """Undo a previous :meth:`allocate`."""
        if allocation.host != self.id:
            raise HostInventoryError(
                f"allocation belongs to {allocation.host}, not {self.id}"
            )
        for index in allocation.gpu_indices:
            if self.gpus[index].bound_to == allocation.owner:
                self.gpus[index].bound_to = None
                self.num_free_gpus += 1
        for vf in allocation.vfs:
            rnic = self.rnics[vf.rnic.rail]
            if rnic.owner_of(vf) == allocation.owner:
                rnic.release_vf(vf)


@dataclass(frozen=True)
class HostAllocation:
    """The GPUs and VFs a container holds on one host."""

    host: HostId
    owner: ContainerId
    gpu_indices: List[int]
    vfs: List[VfId]

    @property
    def rails(self) -> List[int]:
        """Rail indices of the allocated VFs, in slot order."""
        return [vf.rnic.rail for vf in self.vfs]
