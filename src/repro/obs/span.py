"""Timed spans: how long each pipeline stage took, wall and sim clock.

A :class:`Span` covers one unit of pipeline work — a probe round, an
analyzer flush, a localization run — and records both clocks: wall time
(``perf_counter``, what an operator's latency dashboard shows) and
simulation time (where in the run the work happened).  Spans nest: the
recorder keeps a stack of open spans so a localization span started
inside a probe-round span knows its parent.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, ContextManager, Dict, Optional

__all__ = ["NULL_SPAN", "NullSpan", "Span", "open_span"]


@dataclass
class Span:
    """One timed unit of pipeline work."""

    name: str
    span_id: int
    parent_id: Optional[int] = None
    sim_start: float = 0.0
    sim_end: Optional[float] = None
    wall_start: float = 0.0
    wall_end: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def closed(self) -> bool:
        """Whether the span has finished."""
        return self.wall_end is not None

    @property
    def wall_duration_s(self) -> Optional[float]:
        """Elapsed wall-clock seconds, once closed."""
        if self.wall_end is None:
            return None
        return self.wall_end - self.wall_start

    @property
    def sim_duration_s(self) -> float:
        """Elapsed simulation seconds (0 for instantaneous work)."""
        if self.sim_end is None:
            return 0.0
        return self.sim_end - self.sim_start

    def set(self, **attrs: Any) -> "Span":
        """Attach result attributes to the span; returns ``self``."""
        self.attrs.update(attrs)
        return self

    def close(self, sim_time: Optional[float] = None) -> None:
        """Stamp the end of the span on both clocks."""
        self.wall_end = time.perf_counter()
        if sim_time is not None:
            self.sim_end = sim_time
        elif self.sim_end is None:
            self.sim_end = self.sim_start

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable view (the JSONL export row)."""
        return {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "sim_start": self.sim_start,
            "sim_end": self.sim_end,
            "wall_duration_s": self.wall_duration_s,
            "attrs": dict(self.attrs),
        }


class NullSpan:
    """The do-nothing span handed out to a component with no recorder."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "NullSpan":
        return self

    def close(self, sim_time: Optional[float] = None) -> None:
        return None

    @property
    def closed(self) -> bool:
        return True


NULL_SPAN = NullSpan()


def open_span(recorder, name: str, **attrs: Any) -> ContextManager[Any]:
    """``recorder.span(name, **attrs)``, or the null span when the
    component has no recorder."""
    if recorder is None:
        return nullcontext(NULL_SPAN)
    return recorder.span(name, **attrs)
