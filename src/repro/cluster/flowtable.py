"""OVS flow tables and RNIC offload tables.

Each host runs a virtual switch (OVS) whose flow table maps
``(VNI, destination overlay IP)`` to a forwarding action — either VXLAN
encapsulation towards a remote RNIC's underlay IP, or local delivery to a
VF.  Hot rules are offloaded into the RNIC's hardware table; packets that
miss the hardware table fall back to the much slower software path.

The split between the OVS table (source of truth) and the RNIC offload
table (cache) is exactly what the paper's Figure-18 case study exercises:
the RNIC silently invalidated an offloaded flow, packets fell back to
software, latency jumped from 16 µs to 120 µs, and SkeletonHunter found
the inconsistency by dumping and diffing the two tables (§5.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.cluster.identifiers import VfId, carries_hash

__all__ = [
    "ActionKind",
    "FlowAction",
    "FlowInconsistency",
    "FlowKey",
    "FlowRule",
    "FlowTable",
    "RnicOffloadTable",
    "diff_tables",
]

_set = object.__setattr__


@carries_hash
class FlowKey:
    """Match fields: the VXLAN network identifier and overlay dst IP.

    Carries its hash: every lookup, install and validity read of a walk
    hashes its key.
    """

    __slots__ = ("vni", "dst_ip", "_hash")
    vni: int
    dst_ip: str

    def __init__(self, vni: int, dst_ip: str) -> None:
        _set(self, "vni", vni)
        _set(self, "dst_ip", dst_ip)
        _set(self, "_hash", hash((vni, dst_ip)))

    def __str__(self) -> str:
        return f"vni={self.vni},dst={self.dst_ip}"


class ActionKind(enum.Enum):
    """What to do with a matching packet."""

    ENCAP = "encap"      # VXLAN-encapsulate towards a remote underlay IP
    DELIVER = "deliver"  # decapsulate and hand to a local VF


@dataclass(frozen=True)
class FlowAction:
    """A forwarding action; exactly one target field is set per kind."""

    kind: ActionKind
    remote_underlay_ip: Optional[str] = None
    local_vf: Optional[VfId] = None

    def __post_init__(self) -> None:
        if self.kind == ActionKind.ENCAP and not self.remote_underlay_ip:
            raise ValueError("ENCAP action needs remote_underlay_ip")
        if self.kind == ActionKind.DELIVER and self.local_vf is None:
            raise ValueError("DELIVER action needs local_vf")


@dataclass
class FlowRule:
    """An installed rule with hit counters and offload bookkeeping."""

    key: FlowKey
    action: FlowAction
    offloaded: bool = False
    offloaded_to: Optional[str] = None  # RNIC device name holding the copy
    packets: int = 0

    def hit(self) -> None:
        """Record one packet matching this rule."""
        self.packets += 1


class FlowTable:
    """A keyed table of flow rules (the OVS software table).

    The table is an exact-match dict, so installing key K2 cannot change
    what a lookup of K1 returned — and that is the grain of cache
    validity (see :class:`~repro.network.fabric.FlowResolutionCache`):
    :meth:`version_of` a key moves when *that key's* rule appears, is
    replaced or disappears (a monotone per-key version, never reset by a
    removal), or when :attr:`generation` does — :meth:`touch` and
    :meth:`clear`, for state a walk reads that no single key holds.  A
    probe resolution that looked ``key`` up here is valid while
    ``version_of(key)`` is what it was, whatever else the table's other
    tenants install.  Every such mutation also fires the optional
    :attr:`on_mutate` callback, through which the overlay folds table
    churn into its whole-overlay epoch.  Hit-counter updates
    (:meth:`FlowRule.hit`) deliberately do *not* count: they never
    change where a packet goes.
    """

    def __init__(self, name: str = "ovs", component: Optional[str] = None):
        self.name = name
        #: The overlay component a walk through this table crosses — the
        #: name its health flags are kept under (``ovs:host-3``,
        #: ``vtep:host-3/rnic-0``); the table's own name unless given.
        self.component = name if component is None else component
        self.generation = 0
        self.on_mutate: Optional[Callable[[], None]] = None
        self._rules: Dict[FlowKey, FlowRule] = {}
        self._key_versions: Dict[FlowKey, int] = {}

    def __len__(self) -> int:
        return len(self._rules)

    def version_of(self, key: FlowKey) -> int:
        """What a lookup of ``key`` is valid under (only ever grows)."""
        return self.generation + self._key_versions.get(key, 0)

    def touch(self) -> None:
        """Advance :attr:`generation` without changing a rule.

        For state a walk through this table reads but the table does
        not hold — an endpoint attaching to or leaving this host — so
        every resolution that walked it, whatever its key, is re-walked.
        """
        self.generation += 1
        if self.on_mutate is not None:
            self.on_mutate()

    def _key_changed(self, key: FlowKey) -> None:
        self._key_versions[key] = self._key_versions.get(key, 0) + 1
        if self.on_mutate is not None:
            self.on_mutate()

    def install(self, key: FlowKey, action: FlowAction) -> FlowRule:
        """Install the rule for ``key``; last write wins.

        Duplicate-key semantics, which the cluster-wide
        ``flowtable.offload_consistency`` verification pass relies on:

        * same ``action`` again → idempotent; the existing rule (with
          its hit counters and offload bookkeeping) is returned
          unchanged, so a redundant re-install cannot silently strand
          a hardware copy;
        * a **different** ``action`` → the rule is replaced wholesale
          and its offload state reset — the caller must re-offload,
          exactly as a real OVS revalidation would.  Any hardware copy
          left behind under the old action is a genuine inconsistency,
          and the verifier reports it against the stale RNIC cache.
        """
        existing = self._rules.get(key)
        if existing is not None and existing.action == action:
            return existing
        rule = FlowRule(key=key, action=action)
        self._rules[key] = rule
        self._key_changed(key)
        return rule

    def remove(self, key: FlowKey) -> bool:
        """Delete the rule for ``key``; returns whether it existed."""
        existed = self._rules.pop(key, None) is not None
        if existed:
            self._key_changed(key)
        return existed

    def lookup(self, key: FlowKey) -> Optional[FlowRule]:
        """The rule matching ``key``, or ``None`` on a miss."""
        return self._rules.get(key)

    def rules(self) -> List[FlowRule]:
        """All rules sorted by key (a stable 'table dump')."""
        return [self._rules[k] for k in sorted(self._rules)]

    def keys(self) -> List[FlowKey]:
        """All match keys, sorted."""
        return sorted(self._rules)

    def clear(self) -> None:
        """Drop every rule (one :attr:`generation` step covers them)."""
        if self._rules:
            self._rules.clear()
            self.touch()


class RnicOffloadTable(FlowTable):
    """The RNIC hardware flow cache, mirroring offloaded OVS rules."""

    def __init__(
        self,
        name: str = "rnic-offload",
        component: Optional[str] = None,
        device: Optional[str] = None,
    ):
        super().__init__(name, component)
        #: The RNIC holding this cache: what a rule offloaded into it
        #: records as :attr:`FlowRule.offloaded_to`.
        self.device = device
        self.invalidations = 0

    def invalidate(self, key: FlowKey) -> bool:
        """Evict a hardware rule (e.g. by a buggy counter-refresh path)."""
        existed = self.remove(key)
        if existed:
            self.invalidations += 1
        return existed


@dataclass(frozen=True)
class FlowInconsistency:
    """A disagreement between the OVS table and the RNIC offload cache."""

    key: FlowKey
    reason: str


def diff_tables(
    ovs: FlowTable,
    offload: RnicOffloadTable,
    rnic_name: Optional[str] = None,
) -> List[FlowInconsistency]:
    """Diff the OVS software table against one RNIC's hardware cache.

    Flags rules that OVS believes are offloaded (to this RNIC, when
    ``rnic_name`` is given) but are missing from the hardware table (the
    Figure-18 failure mode), hardware rules with no software counterpart
    (stale entries), action mismatches, and rules stuck on the software
    path (never offloaded at all).
    """
    problems: List[FlowInconsistency] = []
    for rule in ovs.rules():
        if rnic_name is not None and rule.offloaded_to not in (
            None, rnic_name
        ):
            continue  # this rule lives in a different RNIC's cache
        hw = offload.lookup(rule.key)
        if rule.offloaded and hw is None:
            if rnic_name is None or rule.offloaded_to == rnic_name:
                problems.append(FlowInconsistency(
                    rule.key, "marked offloaded in OVS but absent from RNIC"
                ))
        elif hw is not None and hw.action != rule.action:
            problems.append(FlowInconsistency(
                rule.key, "RNIC action differs from OVS action"
            ))
        elif not rule.offloaded and hw is None:
            problems.append(FlowInconsistency(
                rule.key, "rule not offloaded (software path)"
            ))
    ovs_keys = set(ovs.keys())
    for key in offload.keys():
        if key not in ovs_keys:
            problems.append(FlowInconsistency(
                key, "stale RNIC rule with no OVS counterpart"
            ))
    return problems
