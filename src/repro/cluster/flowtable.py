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
the inconsistency by dumping and diffing the two tables (§5.3).  That
diff is :func:`diff_tables`; Step 3 and the fabric verifier both read it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.identifiers import VfId, carries_hash

__all__ = [
    "ActionKind",
    "BulkCounts",
    "FlowAction",
    "FlowInconsistency",
    "FlowKey",
    "FlowRule",
    "FlowTable",
    "Mismatch",
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

    __slots__ = ("vni", "dst_ip", "_hash", "_name")
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


@dataclass(slots=True)
class FlowRule:
    """An installed rule with hit counters and offload bookkeeping."""

    key: FlowKey
    action: FlowAction
    offloaded: bool = False
    offloaded_to: Optional[str] = None  # RNIC device name holding the copy
    #: Packets counted one at a time: walks (:meth:`hit`) and per-row
    #: cache hits.  What bulk answers count is in :attr:`cell`.
    hits: int = 0
    #: The :class:`BulkCounts` holding this rule's cell and the cell,
    #: once a bulk answer has counted the rule.
    counts: Optional["BulkCounts"] = field(
        default=None, repr=False, compare=False
    )
    cell: int = field(default=0, repr=False, compare=False)

    def hit(self) -> None:
        """Record one packet matching this rule."""
        self.hits += 1

    @property
    def packets(self) -> int:
        """Every packet that matched this rule, exact at any time: the
        ones counted one at a time plus its bulk cell."""
        if self.counts is None:
            return self.hits
        return self.hits + int(self.counts.values[self.cell])


class BulkCounts:
    """The packets bulk answers counted, one ``int64`` cell per rule.

    A warm round answered in bulk
    (:meth:`~repro.network.fabric.FlowResolutionCache.resolve_all`)
    crosses thousands of rules; it adds its crossings with one array
    add over their cells instead of one Python increment per rule.  A
    rule gets its cell the first time a bulk answer counts it and keeps
    it for life, so a replaced rule keeps its count; a rule no bulk
    answer counts has none.  Each overlay owns one, so replicas in one
    process count apart.
    """

    def __init__(self) -> None:
        self.values = np.zeros(0, dtype=np.int64)
        self.size = 0

    def cells_of(self, rules: Sequence[FlowRule]) -> np.ndarray:
        """Each rule's cell, in order; a rule without one gets the next
        free cell (a full array grows to at least twice its length)."""
        size = self.size
        for rule in rules:
            if rule.counts is None:
                rule.counts, rule.cell = self, size
                size += 1
        if size > len(self.values):
            grown = np.zeros(max(size, 2 * len(self.values)), np.int64)
            grown[:self.size] = self.values[:self.size]
            self.values = grown
        self.size = size
        return np.fromiter(
            (rule.cell for rule in rules), np.int64, len(rules)
        )


class FlowTable:
    """A keyed table of flow rules (the OVS software table).

    The table is an exact-match dict, so installing key K2 cannot change
    what a lookup of K1 returned — and that is the grain of cache
    validity (see :class:`~repro.network.fabric.FlowResolutionCache`).
    Every change says what it changed through the optional
    :attr:`on_mutate` callback, as ``on_mutate(table, key)``: ``key``
    when *that key's* rule appears, is replaced or disappears, ``None``
    when the whole table changes (:meth:`touch`, :meth:`clear`) — state
    a walk reads that no single key holds.  The overlay folds each into
    its whole-overlay epoch and passes it on to the resolutions that
    read it.  Hit-counter updates (:meth:`FlowRule.hit`, a bulk
    answer's :class:`BulkCounts` add) deliberately do *not* count: they
    never change where a packet goes.
    """

    def __init__(self, name: str = "ovs", component: Optional[str] = None):
        self.name = name
        #: The overlay component a walk through this table crosses — the
        #: name its health flags are kept under (``ovs:host-3``,
        #: ``vtep:host-3/rnic-0``); the table's own name unless given.
        self.component = name if component is None else component
        self.on_mutate: Optional[
            Callable[["FlowTable", Optional[FlowKey]], None]
        ] = None
        self._rules: Dict[FlowKey, FlowRule] = {}

    def __len__(self) -> int:
        return len(self._rules)

    def touch(self) -> None:
        """Change the whole table without changing a rule.

        For state a walk through this table reads but the table does
        not hold — an endpoint attaching to or leaving this host — so
        every resolution that walked it, whatever its key, is re-walked.
        """
        self._changed(None)

    def _changed(self, key: Optional[FlowKey]) -> None:
        if self.on_mutate is not None:
            self.on_mutate(self, key)

    def install(self, key: FlowKey, action: FlowAction) -> FlowRule:
        """Install the rule for ``key``; last write wins.

        Duplicate-key semantics, which :func:`diff_tables` relies on:

        * same ``action`` again → idempotent; the existing rule (with
          its hit counters and offload bookkeeping) is returned
          unchanged, so a redundant re-install cannot silently strand
          a hardware copy;
        * a **different** ``action`` → the rule is replaced wholesale
          and its offload state reset — the caller must re-offload,
          exactly as a real OVS revalidation would.  A hardware copy
          left behind under the old action is a genuine inconsistency:
          the diff reports it as :attr:`Mismatch.ACTION` against that
          RNIC's cache.
        """
        existing = self._rules.get(key)
        if existing is not None and existing.action == action:
            return existing
        rule = self._rules[key] = FlowRule(key, action)
        if self.on_mutate is not None:
            self.on_mutate(self, key)
        return rule

    def remove(self, key: FlowKey) -> bool:
        """Delete the rule for ``key``; returns whether it existed."""
        existed = self._rules.pop(key, None) is not None
        if existed:
            self._changed(key)
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
        """Drop every rule (one whole-table change covers them)."""
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


class Mismatch(enum.Enum):
    """How an RNIC's offload cache disagrees with its host's OVS table;
    each value is the reason a dump reports."""

    #: OVS offloaded the rule to this RNIC, which no longer holds it
    #: (the Figure-18 failure mode).
    INVALIDATED = "marked offloaded in OVS but absent from RNIC"
    #: The hardware copy forwards differently from the OVS rule.
    ACTION = "RNIC action differs from OVS action"
    #: The rule was never offloaded: its packets take the software path.
    SOFTWARE = "rule not offloaded (software path)"
    #: The cache holds a key OVS no longer has.
    STALE = "stale RNIC rule with no OVS counterpart"
    #: The cache holds a rule OVS did not offload to it.
    UNCLAIMED = "RNIC holds a rule OVS did not offload to it"


@dataclass(frozen=True)
class FlowInconsistency:
    """A disagreement between the OVS table and the RNIC offload cache."""

    key: FlowKey
    kind: Mismatch

    @property
    def reason(self) -> str:
        """The kind in words (what a dump's trace event carries)."""
        return self.kind.value


def diff_tables(
    ovs: FlowTable, cache: RnicOffloadTable
) -> List[FlowInconsistency]:
    """Diff a host's OVS table against one of its RNIC caches.

    The one OVS ↔ RNIC comparison: a rule belongs to the cache whose
    :attr:`~RnicOffloadTable.device` its ``offloaded_to`` names, and a
    rule naming no RNIC belongs to every cache of the host.  One
    :class:`FlowInconsistency` per mismatch, OVS rules by key first,
    then the cache's stale keys.
    """
    device = cache.device
    problems: List[FlowInconsistency] = []
    for rule in ovs.rules():
        hw = cache.lookup(rule.key)
        ours = rule.offloaded_to in (None, device)
        mine = rule.offloaded and rule.offloaded_to == device
        if hw is None:
            if mine:
                kind = Mismatch.INVALIDATED
            elif ours and not rule.offloaded:
                kind = Mismatch.SOFTWARE
            else:
                continue
        elif ours and hw.action != rule.action:
            kind = Mismatch.ACTION
        elif not mine:
            kind = Mismatch.UNCLAIMED
        else:
            continue
        problems.append(FlowInconsistency(rule.key, kind))
    problems += [
        FlowInconsistency(key, Mismatch.STALE)
        for key in cache.keys() if ovs.lookup(key) is None
    ]
    return problems
