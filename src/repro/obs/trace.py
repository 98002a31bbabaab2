"""The trace recorder: structured events + timed spans + shared metrics.

This is the reproduction's analogue of the paper's log service (§6):
every pipeline stage — probing, detection, localization, handling —
emits structured events and timed spans into one shared
:class:`TraceRecorder`, whose :class:`~repro.sim.metrics.MetricRegistry`
simultaneously accumulates the per-round counters the dashboards plot.

Components treat the recorder as optional: ``None`` means "not
observed", and :func:`~repro.obs.span.open_span` hands out a no-op span
for it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.span import Span
from repro.sim.metrics import MetricRegistry

__all__ = ["TraceEvent", "TraceRecorder"]


@dataclass(frozen=True)
class TraceEvent:
    """One structured log record emitted by a pipeline stage."""

    seq: int
    kind: str               # e.g. "round.complete", "localize.tomography"
    sim_time: float
    wall_time: float
    span_id: Optional[int] = None
    fields: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable view (the JSONL export row)."""
        return {
            "type": "event",
            "seq": self.seq,
            "kind": self.kind,
            "sim_time": self.sim_time,
            "span_id": self.span_id,
            "fields": dict(self.fields),
        }


class TraceRecorder:
    """Collects events, spans, and metrics for one monitored run."""

    def __init__(self) -> None:
        self.metrics = MetricRegistry()
        self._events: List[TraceEvent] = []
        self._spans: List[Span] = []
        self._seq = 0
        self._stack: List[int] = []     # ids of currently-open spans

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def event(
        self, kind: str, sim_time: float = 0.0, **fields: Any
    ) -> TraceEvent:
        """Record one structured event."""
        self._seq += 1
        record = TraceEvent(
            seq=self._seq, kind=kind, sim_time=sim_time,
            wall_time=time.perf_counter(),
            span_id=self._stack[-1] if self._stack else None,
            fields=fields,
        )
        self._events.append(record)
        return record

    @contextmanager
    def span(
        self, name: str, sim_time: float = 0.0, **attrs: Any
    ) -> Iterator[Any]:
        """Time a block of pipeline work; yields the open span.

        The caller may stamp ``span.close(sim_time=...)`` inside the
        block to record simulated elapsed time; otherwise the span closes
        with ``sim_end == sim_start`` (instantaneous in sim time).
        """
        self._seq += 1
        span = Span(
            name=name, span_id=self._seq,
            parent_id=self._stack[-1] if self._stack else None,
            sim_start=sim_time, wall_start=time.perf_counter(),
            attrs=dict(attrs),
        )
        self._spans.append(span)
        self._stack.append(span.span_id)
        try:
            yield span
        finally:
            self._stack.pop()
            if not span.closed:
                span.close()

    def count(self, name: str, amount: float = 1.0) -> None:
        """Increment a counter on the shared registry."""
        self.metrics.increment(name, amount)

    def sample(self, name: str, sim_time: float, value: float) -> None:
        """Append to a time series on the shared registry."""
        self.metrics.series(name).record(sim_time, value)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def events(self, kind: Optional[str] = None) -> List[TraceEvent]:
        """All events, or only those of one ``kind`` (prefix-matched
        when ``kind`` ends with ``.``)."""
        if kind is None:
            return list(self._events)
        if kind.endswith("."):
            return [e for e in self._events if e.kind.startswith(kind)]
        return [e for e in self._events if e.kind == kind]

    def spans(self, name: Optional[str] = None) -> List[Span]:
        """All spans, or only those called ``name``."""
        if name is None:
            return list(self._spans)
        return [s for s in self._spans if s.name == name]

    def last_event(self, kind: str) -> Optional[TraceEvent]:
        """The most recent event of ``kind``, if any."""
        for record in reversed(self._events):
            if record.kind == kind:
                return record
        return None

    def children_of(self, span: Span) -> List[Span]:
        """Spans directly nested inside ``span``."""
        return [s for s in self._spans if s.parent_id == span.span_id]

    def clear(self) -> None:
        """Drop all recorded events and spans (counters are kept)."""
        self._events.clear()
        self._spans.clear()
        self._stack.clear()
