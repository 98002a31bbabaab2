"""Exporters: JSON-lines trace dumps and Prometheus text metrics.

Two formats cover the two consumers the paper's log service feeds (§6):

* **JSONL** — the full trace (events and spans interleaved in recording
  order), one JSON object per line, for incident forensics and replay;
* **Prometheus text format** — counters and latest series samples, for
  the per-round dashboards (``probes.sent`` becomes
  ``skeletonhunter_probes_sent_total`` and so on).
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Union

from repro.obs.trace import TraceRecorder
from repro.sim.metrics import MetricRegistry

__all__ = ["to_jsonl", "to_prometheus", "write_jsonl"]

_PREFIX = "skeletonhunter"
_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _rows(recorder: TraceRecorder) -> List[Dict[str, Any]]:
    rows = [e.to_dict() for e in recorder.events()]
    rows.extend(s.to_dict() for s in recorder.spans())
    # Interleave in recording order: span ids and event seqs share one
    # sequence counter, so sorting on it reconstructs the timeline.
    rows.sort(key=lambda r: r.get("seq", r.get("span_id", 0)))
    return rows


def to_jsonl(recorder: TraceRecorder) -> str:
    """Render the recorder's full trace as JSON-lines text."""
    return "\n".join(
        json.dumps(row, sort_keys=True, default=str)
        for row in _rows(recorder)
    )


def write_jsonl(recorder: TraceRecorder, path: str) -> int:
    """Write the JSONL trace to ``path``; returns the row count."""
    rows = _rows(recorder)
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True, default=str))
            handle.write("\n")
    return len(rows)


def metric_name(name: str, counter: bool = False) -> str:
    """Map a registry name to a Prometheus metric name.

    Dots become underscores, invalid characters are stripped, and
    counters get the conventional ``_total`` suffix:
    ``probes.sent`` -> ``skeletonhunter_probes_sent_total``.
    """
    flat = _NAME_RE.sub("_", name.replace(".", "_"))
    suffix = "_total" if counter else ""
    return f"{_PREFIX}_{flat}{suffix}"


def to_prometheus(source: Union[TraceRecorder, MetricRegistry]) -> str:
    """Render a registry (or a recorder's registry) as Prometheus text."""
    registry = source.metrics if isinstance(source, TraceRecorder) else source
    lines: List[str] = []
    for name, value in sorted(registry.counters().items()):
        flat = metric_name(name, counter=True)
        lines.append(f"# TYPE {flat} counter")
        lines.append(f"{flat} {_format(value)}")
    for name in registry.series_names():
        series = registry.series(name)
        last = series.last()
        if last is None:
            continue
        flat = metric_name(name)
        lines.append(f"# TYPE {flat} gauge")
        lines.append(f"{flat} {_format(last[1])}")
        lines.append(f"# TYPE {flat}_samples counter")
        lines.append(f"{flat}_samples {len(series)}")
    return "\n".join(lines) + ("\n" if lines else "")


def _format(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))
