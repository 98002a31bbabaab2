"""Encoding between domain objects and JSON-safe bus records.

Everything a recording needs to rebuild detection and localization —
probe results, endpoint pairs, and fault ground truth — round-trips
through the helpers here, and what a run concluded (opened events,
localization verdicts) is encoded here too, so every plane that
publishes them puts the same bytes on the bus.  Encodings are
deliberately flat (lists and small dicts keyed by ``kind``) so the
JSONL stream stays greppable and stable across schema versions.
Probe reports travel as :class:`~repro.network.packet.ProbeBatch`
columns in both directions: rows are written from, and read back into,
the arrays the analyzer scatters, never one object per probe.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.cluster.container import Container
from repro.cluster.identifiers import (
    ContainerId,
    EndpointId,
    HostId,
    LinkId,
    RnicId,
    SwitchId,
    TaskId,
)
from repro.network.issues import Symptom
from repro.network.packet import ProbeBatch, endpoints_of

__all__ = [
    "decode_probe_rows",
    "encode_event",
    "encode_fault",
    "encode_pairs",
    "encode_probe_rows",
    "encode_target",
    "encode_verdict",
    "fault_overrides",
    "parse_endpoint",
    "resolve_target",
]

_ENDPOINT_RE = re.compile(r"^task-(\d+)/node-(\d+)/ep-(\d+)$")


@lru_cache(maxsize=1 << 16)
def parse_endpoint(text: str) -> EndpointId:
    """Parse ``task-T/node-R/ep-S`` back into an :class:`EndpointId`
    (interned by text: a recording names each endpoint once per probe)."""
    match = _ENDPOINT_RE.match(text)
    if match is None:
        raise ValueError(f"not an endpoint id: {text!r}")
    task, rank, slot = (int(g) for g in match.groups())
    return EndpointId(ContainerId(TaskId(task), rank), slot)


# ----------------------------------------------------------------------
# Probe results
# ----------------------------------------------------------------------


def encode_probe_rows(batch: ProbeBatch) -> List[List[Any]]:
    """Encode delivered probe reports as compact rows.

    Each row is ``[src, dst, sent_at, latency_us]`` with ``latency_us``
    null for lost probes — exactly the fields the analyzer reads, so a
    replayed detection pipeline sees bit-identical input.
    """
    return [
        [str(src), str(dst), sent_at, None if lost else latency_us]
        for (src, dst), sent_at, lost, latency_us in zip(
            map(endpoints_of, batch.pairs), batch.sent_at.tolist(),
            batch.lost.tolist(), batch.latency_us.tolist(),
        )
    ]


def decode_probe_rows(rows: Iterable[List[Any]]) -> ProbeBatch:
    """Rebuild the :class:`ProbeBatch` recorded rows were encoded
    from (the columns :func:`encode_probe_rows` kept)."""
    rows = list(rows)
    latency_us = np.array(
        [np.nan if row[3] is None else row[3] for row in rows],
        dtype=np.float64,
    )
    return ProbeBatch(
        pairs=[
            (parse_endpoint(src), parse_endpoint(dst))
            for src, dst, _, _ in rows
        ],
        sent_at=np.array([row[2] for row in rows], dtype=np.float64),
        lost=np.isnan(latency_us),
        latency_us=latency_us,
    )


# ----------------------------------------------------------------------
# Fault targets and ground truth
# ----------------------------------------------------------------------


def encode_target(target: object) -> Dict[str, Any]:
    """Encode a fault target (identifier or container) by kind."""
    if isinstance(target, Container):
        target = target.id
    if isinstance(target, RnicId):
        return {"kind": "rnic", "host": target.host.index,
                "rail": target.rail}
    if isinstance(target, HostId):
        return {"kind": "host", "index": target.index}
    if isinstance(target, SwitchId):
        return {"kind": "switch", "tier": target.tier,
                "index": target.index}
    if isinstance(target, LinkId):
        return {"kind": "link", "a": target.a, "b": target.b}
    if isinstance(target, ContainerId):
        return {"kind": "container", "task": target.task.index,
                "rank": target.rank}
    raise TypeError(f"cannot encode fault target {target!r}")


def resolve_target(
    data: Mapping[str, Any],
    containers: Optional[Mapping[ContainerId, Container]] = None,
) -> object:
    """Rebuild a fault target from its encoded form.

    ``containers`` maps ids to live :class:`Container` objects; it is
    required to resolve ``container`` targets (container-crash faults
    act on the live object, not the id).
    """
    kind = data["kind"]
    if kind == "rnic":
        return RnicId(HostId(int(data["host"])), int(data["rail"]))
    if kind == "host":
        return HostId(int(data["index"]))
    if kind == "switch":
        return SwitchId(str(data["tier"]), int(data["index"]))
    if kind == "link":
        return LinkId(str(data["a"]), str(data["b"]))
    if kind == "container":
        container_id = ContainerId(TaskId(int(data["task"])),
                                   int(data["rank"]))
        if containers is None or container_id not in containers:
            raise ValueError(
                f"cannot resolve container target {container_id} "
                "without the replica's container map"
            )
        return containers[container_id]
    raise ValueError(f"unknown fault target kind {kind!r}")


def encode_fault(fault: Any) -> Dict[str, Any]:
    """Encode a network-plane :class:`repro.network.faults.Fault`.

    Captures every injection parameter the replayer needs to re-apply
    the fault against an identically built replica, including its
    ``fault_id`` (run-local — the injector numbers a run's faults from
    0, so same-seed recordings agree byte for byte — and pinned on
    replay rather than re-allocated).
    """
    return {
        "issue": fault.issue.name,
        "target": encode_target(fault.target),
        "start": fault.start,
        "end": fault.end,
        "loss_rate": fault.loss_rate,
        "extra_latency_us": fault.extra_latency_us,
        "down": fault.down,
        "flap_period_s": fault.flap_period_s,
        "flap_duty": fault.flap_duty,
        "flow_selector": fault.flow_selector,
        "culprits": sorted(fault.culprits),
        "fault_id": fault.fault_id,
    }


def fault_overrides(data: Mapping[str, Any]) -> Dict[str, Any]:
    """The ``inject_issue`` overrides that re-pin a recorded fault."""
    return {
        "end": data["end"],
        "loss_rate": data["loss_rate"],
        "extra_latency_us": data["extra_latency_us"],
        "down": data["down"],
        "flap_period_s": data["flap_period_s"],
        "flap_duty": data["flap_duty"],
        "flow_selector": data["flow_selector"],
        "fault_id": data["fault_id"],
    }


def encode_pairs(
    pairs: Iterable[Any],
) -> List[Tuple[str, str]]:
    """Encode probe pairs as ``[src, dst]`` string rows."""
    return [(str(p.src), str(p.dst)) for p in pairs]


# ----------------------------------------------------------------------
# Events and verdicts
# ----------------------------------------------------------------------


def encode_event(
    pair: Any, first_detected_at: float, symptom: Symptom
) -> Dict[str, Any]:
    """The ``detect.events`` payload of one opened failure event; the
    symptom travels as the catalogue value (``"unconnectivity"``)."""
    return {
        "src": str(pair.src),
        "dst": str(pair.dst),
        "first_detected_at": first_detected_at,
        "symptom": symptom.value,
    }


def encode_verdict(at: float, report: Any) -> Dict[str, Any]:
    """The ``localize.verdicts`` payload of one
    :class:`~repro.core.localization.LocalizationReport`."""
    diagnoses, unexplained = report.verdict_row()
    return {
        "at": at,
        "diagnoses": [list(row) for row in diagnoses],
        "unexplained": unexplained,
    }
