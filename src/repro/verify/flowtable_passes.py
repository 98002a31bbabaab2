"""Flow-table passes: Batfish-style cross-table consistency.

The paper's Figure-18 case study hinges on the OVS software table and
the RNIC hardware cache agreeing: the RNIC silently invalidated an
offloaded flow, packets fell back to the software path, and latency
jumped 16 µs → 120 µs.  This pass reads the same diff Step 3 dumps
(:func:`repro.cluster.flowtable.diff_tables`), for every RNIC cache of
every host, and reports each mismatch as a finding:

* a rule OVS offloaded to an RNIC is missing from its cache, or the
  copy there carries another action, or the cache holds a key OVS no
  longer has — ERRORs;
* a cache holds a rule OVS did not offload to it — an ERROR when
  another cache on the host is the one OVS named (the rule resolves in
  more than one cache), a WARNING otherwise;
* a rule on the software path is no finding: a VTEP forced to software
  is a state, not an inconsistency.

Two checks read the host's OVS table alone, since no per-cache diff
sees them: a rule marked offloaded that names no RNIC, and one naming
an RNIC with no cache on its host.
"""

from __future__ import annotations

from typing import Dict

from repro.cluster.flowtable import (
    FlowInconsistency,
    FlowTable,
    Mismatch,
    RnicOffloadTable,
    diff_tables,
)
from repro.cluster.identifiers import HostId, RnicId
from repro.verify.framework import (
    PassResult,
    Severity,
    VerificationContext,
    VerificationPass,
)

__all__ = ["OffloadConsistencyPass"]


class OffloadConsistencyPass(VerificationPass):
    """Cluster-wide OVS ↔ RNIC offload-cache agreement."""

    name = "flowtable.offload_consistency"

    def run(self, context: VerificationContext) -> PassResult:
        result = self.result()
        overlay = context.cluster.overlay
        rnics = overlay.offload_rnics()
        for host in overlay.hosts_with_tables():
            ovs = overlay.ovs_table(host)
            caches = {str(r): r for r in rnics if r.host == host}
            for rule in ovs.rules():
                result.checked += 1
                if not rule.offloaded or rule.offloaded_to in caches:
                    continue
                if rule.offloaded_to is None:
                    self.finding(
                        result, f"ovs:{host}",
                        f"rule [{rule.key}] marked offloaded but names no "
                        "RNIC (offloaded_to unset)",
                    )
                else:
                    self.finding(
                        result, rule.offloaded_to,
                        f"rule [{rule.key}] marked offloaded to "
                        f"{rule.offloaded_to}, but that RNIC has no "
                        "hardware cache on this host",
                        details=[
                            f"host {host} caches: "
                            + (", ".join(caches) or "(none)"),
                        ],
                    )
            for rnic in caches.values():
                cache = overlay.offload_table(rnic)
                result.checked += len(cache)
                for item in diff_tables(ovs, cache):
                    self._report(result, host, rnic, item, ovs, cache, caches)
        return result

    def _report(
        self,
        result: PassResult,
        host: HostId,
        rnic: RnicId,
        item: FlowInconsistency,
        ovs: FlowTable,
        cache: RnicOffloadTable,
        caches: Dict[str, RnicId],
    ) -> None:
        key, kind = item.key, item.kind
        if kind is Mismatch.INVALIDATED:
            self.finding(
                result, rnic,
                f"rule [{key}] marked offloaded in OVS but absent from "
                "the RNIC cache (silent invalidation)",
                details=[
                    f"OVS on {host} believes {rnic} holds the rule",
                    "packets for this flow fall back to the software "
                    "path (Figure-18 failure mode)",
                ],
            )
            return
        if kind is Mismatch.STALE:
            self.finding(
                result, rnic,
                f"stale hardware rule [{key}] has no OVS counterpart on "
                "its host",
                details=[
                    f"host {host} OVS table has no rule for {key}",
                    "hardware serves a flow the control plane no longer "
                    "knows",
                ],
            )
            return
        if kind is Mismatch.SOFTWARE:
            return
        # ACTION or UNCLAIMED: the cache holds a copy of an OVS rule.
        rule = ovs.lookup(key)
        owner = caches.get(rule.offloaded_to) if rule.offloaded else None
        if owner == rnic:  # an ACTION on the rule OVS offloaded here
            self.finding(
                result, rnic,
                f"hardware action for [{key}] differs from the OVS action",
                details=[
                    f"OVS:  {rule.action}",
                    f"RNIC: {cache.lookup(key).action}",
                    "hardware forwards this flow differently from the "
                    "control plane's intent",
                ],
            )
        elif owner is not None:
            self.finding(
                result, rnic,
                f"rule [{key}] resolves in more than one RNIC cache on "
                f"{host} (offloaded_to names {owner})",
                details=[
                    "an offloaded rule must live in exactly one hardware "
                    "cache per host",
                ],
            )
        else:
            self.finding(
                result, rnic,
                f"unaccounted hardware rule [{key}]: the host's OVS table "
                "does not claim this RNIC holds it",
                details=[
                    f"OVS rule offloaded={rule.offloaded}, "
                    f"offloaded_to={rule.offloaded_to}",
                ],
                severity=Severity.WARNING,
            )
