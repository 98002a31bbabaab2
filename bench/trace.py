"""Span recorder for the benchmark's traced pass.

Spans are recorded *from the benchmark's side*: :func:`install` swaps
class-level wrappers around each layer's public methods (and a few
module-level functions) before the scenario is built, so the program
itself carries no switch, no environment variable and no extra import.
Every call becomes one :class:`Span` (name, start, end, parent; one
trace id per root span, i.e. per monitoring round).  Per-probe calls
(``Analyzer.ingest``) are *folded*: all calls made under one parent
share a single span that carries the call count and the summed busy
time, which bounds both memory and the per-call overhead.

Self time is a span's busy time minus the busy time of its direct
children; because the benchmark is single-threaded, the self times of
one trace sum exactly to its root span's duration.

Spans stay in memory and are written out by :meth:`Tracer.write_jsonl`
when the benchmark ends.  Forked shard workers inherit the wrappers but
not the recording: :func:`install` disables the tracer in children, so
worker internals stay dark (spans inside the program are a later
change).
"""

from __future__ import annotations

import importlib
import json
import os
import time
from contextlib import contextmanager
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

__all__ = [
    "LayerStats",
    "Span",
    "TARGETS",
    "Tracer",
    "aggregate",
    "calibrate",
    "install",
    "modeled_cost_s",
    "self_times",
]


class Span:
    """One recorded call (or one folded group of per-probe calls)."""

    __slots__ = (
        "index", "name", "start", "end", "parent", "trace", "calls",
        "busy", "attrs", "folded", "_folded",
    )

    def __init__(
        self,
        index: int,
        name: str,
        start: float,
        parent: Optional[int],
        trace: int,
    ) -> None:
        self.index = index
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.trace = trace
        self.calls = 1
        #: Seconds spent inside the call(s).  ``end - start`` for an
        #: ordinary span; the summed call durations for a folded one,
        #: whose ``start``/``end`` bracket the first and last call.
        self.busy = 0.0
        self.attrs: Dict[str, float] = {}
        #: Whether this span stands for many per-probe calls.
        self.folded = False
        self._folded: Optional[Dict[str, "Span"]] = None

    def as_dict(self) -> Dict[str, object]:
        """The span as one JSONL row."""
        return {
            "index": self.index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "trace": self.trace,
            "calls": self.calls,
            "busy": self.busy,
            "attrs": self.attrs,
        }


class Tracer:
    """In-memory span recorder with an explicit parent stack."""

    def __init__(
        self, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self.clock = clock
        self.enabled = True
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._traces = 0

    def begin(self, name: str) -> Span:
        """Open a span under the current one (a root opens a trace)."""
        if self._stack:
            parent = self._stack[-1]
            span = Span(
                len(self.spans), name, self.clock(),
                parent.index, parent.trace,
            )
        else:
            self._traces += 1
            span = Span(
                len(self.spans), name, self.clock(), None, self._traces
            )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        """Close ``span`` (which must be the innermost open span)."""
        span.end = self.clock()
        span.busy = span.end - span.start
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(
                f"span {span.name!r} closed while {popped.name!r} "
                f"was innermost"
            )

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Context-manager form of :meth:`begin`/:meth:`finish`."""
        span = self.begin(name)
        try:
            yield span
        finally:
            self.finish(span)

    def fold(self, name: str, start: float, end: float) -> None:
        """Account one per-probe call into its parent's folded span."""
        parent = self._stack[-1] if self._stack else None
        table = {} if parent is None else parent._folded
        if table is None:
            table = parent._folded = {}
        span = table.get(name)
        if span is None:
            span = table[name] = Span(
                len(self.spans), name, start,
                None if parent is None else parent.index,
                0 if parent is None else parent.trace,
            )
            span.calls = 0
            span.folded = True
            self.spans.append(span)
        span.calls += 1
        span.busy += end - start
        span.end = end

    def write_jsonl(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span index -> busy time minus its direct children's busy time."""
    own = {span.index: span.busy for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in own:
            own[span.parent] -= span.busy
    return own


class LayerStats:
    """Per-name totals over a set of spans."""

    __slots__ = ("calls", "spans", "busy", "self_s", "attrs", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.spans = 0
        self.busy = 0.0
        self.self_s = 0.0
        self.attrs: Dict[str, float] = {}
        self.durations: List[float] = []


def aggregate(
    spans: List[Span], roots: Iterable[str]
) -> Dict[str, LayerStats]:
    """Totals by span name over the traces rooted at ``roots`` names."""
    wanted = set(roots)
    traces = {
        span.trace for span in spans
        if span.parent is None and span.name in wanted
    }
    own = self_times(spans)
    stats: Dict[str, LayerStats] = {}
    for span in spans:
        if span.trace not in traces:
            continue
        layer = stats.get(span.name)
        if layer is None:
            layer = stats[span.name] = LayerStats()
        layer.calls += span.calls
        layer.spans += 1
        layer.busy += span.busy
        layer.self_s += own[span.index]
        layer.durations.append(span.busy)
        for key, value in span.attrs.items():
            layer.attrs[key] = layer.attrs.get(key, 0.0) + value
    return stats


def calibrate(calls: int = 20000) -> Tuple[float, float]:
    """Seconds one wrapper adds per call: (ordinary span, folded call).

    Times a no-op function bare and through both wrapper kinds on a
    scratch tracer.  The result prices the spans of a traced pass
    (:func:`modeled_cost_s`) — a model of the tracing overhead that,
    unlike the traced/untraced wall ratio, does not drown in the
    sandbox's run-to-run noise.
    """
    def noop():
        return None

    def timed(function) -> float:
        scratch = Tracer()
        wrapped = function(scratch)
        with scratch.span("calibrate"):
            began = time.perf_counter()
            for _ in range(calls):
                wrapped()
            return (time.perf_counter() - began) / calls

    bare = timed(lambda scratch: noop)
    span = timed(lambda scratch: _wrap(scratch, "noop", noop, False, None))
    fold = timed(lambda scratch: _wrap(scratch, "noop", noop, True, None))
    return max(span - bare, 0.0), max(fold - bare, 0.0)


def modeled_cost_s(
    spans: Iterable[Span], span_cost_s: float, fold_cost_s: float
) -> float:
    """What recording ``spans`` cost, at the calibrated per-call prices."""
    return sum(
        span.calls * fold_cost_s if span.folded else span_cost_s
        for span in spans
    )


# ----------------------------------------------------------------------
# Class-level wrappers
# ----------------------------------------------------------------------

Note = Callable[[Span, tuple, dict, object], None]


def _note_active_pairs(span, args, kwargs, result) -> None:
    span.attrs["scanned"] = len(args[0].pairs)


def _note_batch(span, args, kwargs, result) -> None:
    span.attrs["probes"] = len(result)


def _note_localize(span, args, kwargs, result) -> None:
    events = args[1] if len(args) > 1 else kwargs["events"]
    span.attrs["events"] = len(events)
    span.attrs["diagnoses"] = len(result.diagnoses)
    span.attrs["unexplained"] = len(result.unexplained)


def _note_infer(span, args, kwargs, result) -> None:
    span.attrs["edges"] = len(result.edges)


def _note_pairs(span, args, kwargs, result) -> None:
    span.attrs["pairs"] = len(result.pairs)


def _note_chunk(span, args, kwargs, result) -> None:
    span.attrs["shard"] = args[0].shard_id
    if len(args) > 1:
        span.attrs["start_round"] = args[1]


#: ``(module, owner or None, attribute, folded, note)``.  A ``None``
#: owner patches the module attribute itself — which must be the name
#: the *caller* resolves, hence ``repro.bus.replay.decode_probe_rows``
#: and ``repro.fleet.controller.build_fleet_replica`` rather than the
#: modules that define them.
TARGETS = (
    ("repro.core.pinglist", "PingList", "active_pairs", False,
     _note_active_pairs),
    ("repro.core.agent", "OverlayAgent", "my_pairs", False, None),
    ("repro.core.agent", "OverlayAgent", "execute_round", False, None),
    ("repro.network.fabric", "DataPlaneFabric", "send_probe_batch",
     False, _note_batch),
    ("repro.network.fabric", "DataPlaneFabric", "send_probe", False,
     None),
    ("repro.core.analyzer", "Analyzer", "ingest", True, None),
    ("repro.core.analyzer", "Analyzer", "flush", False, None),
    ("repro.core.localization", "Localizer", "localize", False,
     _note_localize),
    ("repro.core.skeleton", "SkeletonInference", "infer", False,
     _note_infer),
    ("repro.core.controller", "Controller", "preload_task", False,
     _note_pairs),
    ("repro.core.controller", "Controller", "apply_skeleton", False,
     _note_pairs),
    ("repro.bus.core", "TelemetryBus", "publish", False, None),
    ("repro.bus.replay", None, "load_recording", False, None),
    ("repro.bus.replay", None, "decode_probe_rows", False, None),
    ("repro.bus.replay", "Replayer", "replay", False, None),
    ("repro.shard.partition", "TopologyPartitioner", "partition", False,
     None),
    ("repro.shard.backend", "MultiprocessingBackend", "spawn", False,
     None),
    ("repro.shard.backend", "MultiprocessingHandle", "begin_chunk",
     False, _note_chunk),
    ("repro.shard.backend", "MultiprocessingHandle", "finish_chunk",
     False, _note_chunk),
    ("repro.shard.coordinator", "ShardCoordinator", "run", False, None),
    ("repro.fleet.budget", "ProbeBudgetScheduler", "allocate", False,
     None),
    ("repro.fleet.budget", "ProbeBudgetScheduler", "select_pairs", False,
     None),
    ("repro.fleet.controller", "FleetController", "run_rounds", False,
     None),
    ("repro.fleet.controller", None, "build_fleet_replica", False, None),
    ("repro.fleet.coordinator", "FleetCoordinator", "run", False, None),
)


def _wrap(
    tracer: Tracer,
    name: str,
    original: Callable,
    folded: bool,
    note: Optional[Note],
) -> Callable:
    if folded:
        def traced_folded(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            clock = tracer.clock
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                tracer.fold(name, start, clock())

        return traced_folded

    def traced(*args, **kwargs):
        if not tracer.enabled:
            return original(*args, **kwargs)
        span = tracer.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.finish(span)
        if note is not None:
            note(span, args, kwargs, result)
        return result

    return traced


@contextmanager
def install(tracer: Tracer, targets=TARGETS) -> Iterator[None]:
    """Swap the wrappers in for the duration of the ``with`` block.

    Class-level: instances built inside the block *and* instances that
    already exist are traced, since methods resolve through the class.
    A forked child keeps the wrappers but stops recording.
    """
    os.register_at_fork(
        after_in_child=lambda: setattr(tracer, "enabled", False)
    )
    restore = []
    try:
        for module_name, owner_name, attr, folded, note in targets:
            module = importlib.import_module(module_name)
            owner = (
                module if owner_name is None
                else getattr(module, owner_name)
            )
            original = vars(owner)[attr]
            label = f"{owner_name}.{attr}" if owner_name else attr
            if isinstance(original, staticmethod):
                wrapper = staticmethod(_wrap(
                    tracer, label, original.__func__, folded, note
                ))
            else:
                wrapper = _wrap(tracer, label, original, folded, note)
            setattr(owner, attr, wrapper)
            restore.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
