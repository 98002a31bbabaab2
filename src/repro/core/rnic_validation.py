"""RNIC flow-table validation (§5.3, "Validating RNICs").

When neither the overlay walk nor underlay tomography explains a failure,
SkeletonHunter dumps the hardware flow cache of the RNIC on each side of
the failing pair and diffs it against its host's OVS software table
(:func:`~repro.cluster.flowtable.diff_tables`, the diff the fabric
verifier reads too).  Of its mismatches, a dump keeps those about the
flows its own RNIC carries:

* OVS says *offloaded* but the hardware cache lacks the rule — the RNIC
  silently invalidated it (the Figure-18 case; repetitive offloading).
* rules stuck on the software path (never offloaded) — the RNIC cannot
  offload (offloading failure).
* stale or divergent hardware rules — RNIC-side corruption.

A rule the cache holds that OVS offloaded elsewhere, or nowhere, is no
evidence against this RNIC, so the dump drops it.  The dump is flagged
as *intrusive*: the paper notes it can temporarily degrade the data
plane, so the localizer only reaches for it last.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.cluster.flowtable import FlowInconsistency, Mismatch, diff_tables
from repro.cluster.identifiers import RnicId
from repro.cluster.orchestrator import Cluster
from repro.core.resilience import MAX_RETRIES, backoff_s
from repro.network.draws import keyed_uniform

__all__ = ["RnicFinding", "RnicValidator"]


@dataclass(frozen=True)
class RnicFinding:
    """Result of validating one RNIC against its host's OVS table."""

    rnic: RnicId
    inconsistencies: List[FlowInconsistency]
    invalidation_count: int
    #: The dump itself failed (monitor-plane read error, retries
    #: exhausted): no diff evidence either way.  Callers must *skip*
    #: such findings, never read them as "clean".
    read_error: bool = False

    @property
    def suspicious(self) -> bool:
        """Whether the diff found anything at all."""
        return bool(self.inconsistencies)

    @property
    def silently_invalidated(self) -> int:
        """Rules OVS believes are in hardware but are not (Figure 18)."""
        return sum(
            item.kind is Mismatch.INVALIDATED for item in self.inconsistencies
        )

    @property
    def software_path_rules(self) -> int:
        """Rules that never made it into hardware."""
        return sum(
            item.kind is Mismatch.SOFTWARE for item in self.inconsistencies
        )

    def as_fields(self, examples: int = 3) -> Dict[str, object]:
        """A JSON-serializable view of the finding (for trace events)."""
        return {
            "rnic": str(self.rnic),
            "inconsistencies": len(self.inconsistencies),
            "silently_invalidated": self.silently_invalidated,
            "software_path_rules": self.software_path_rules,
            "invalidation_count": self.invalidation_count,
            "read_error": self.read_error,
            "examples": [
                item.reason for item in self.inconsistencies[:examples]
            ],
        }


class RnicValidator:
    """Dumps and diffs OVS vs RNIC hardware flow tables.

    With a chaos injector attached, each dump may hit a monitor-plane
    ``FLOW_TABLE_READ_ERROR``; the validator retries with keyed backoff
    and, when retries are exhausted, returns a finding flagged
    ``read_error`` — evidence of nothing, rather than a false "clean".
    """

    def __init__(
        self,
        cluster: Cluster,
        chaos=None,
        recorder=None,
    ) -> None:
        self._cluster = cluster
        self.chaos = chaos
        self._recorder = recorder
        self.dumps_performed = 0

    def validate(self, rnic: RnicId, at: float = 0.0) -> RnicFinding:
        """Diff one RNIC's hardware cache against its host's OVS table."""
        overlay = self._cluster.overlay
        self.dumps_performed += 1
        if self.chaos is not None and not self._read_succeeds(rnic, at):
            return RnicFinding(
                rnic=rnic,
                inconsistencies=[],
                invalidation_count=0,
                read_error=True,
            )
        ovs = overlay.ovs_table(rnic.host)
        hw = overlay.offload_table(rnic)
        return RnicFinding(
            rnic=rnic,
            inconsistencies=[
                item for item in diff_tables(ovs, hw)
                if item.kind is not Mismatch.UNCLAIMED
            ],
            invalidation_count=hw.invalidations,
        )

    def _read_succeeds(self, rnic: RnicId, at: float) -> bool:
        """Attempt the dump with bounded keyed-backoff retries."""
        key = f"backoff:flowread:{rnic}@{at!r}"
        attempt = 0
        while self.chaos.flow_table_read_fails(rnic, at, attempt):
            if attempt >= MAX_RETRIES:
                if self._recorder is not None:
                    self._recorder.count("validation.read_errors")
                return False
            attempt += 1
            if self._recorder is not None:
                self._recorder.count("validation.read_retries")
            at = at + backoff_s(
                attempt, keyed_uniform(self.chaos.seed, key, salt=attempt)
            )
        return True
