"""The analyzer: aggregates probing results and emits failure events.

Plays the role of the paper's log-service + real-time-computing analyzer
(§6): agents report probe results here; the detection engine closes each
pair's 30-second and 30-minute windows and scores them in batches; and
consecutive anomalies on one pair are folded into a single
:class:`FailureEvent` so a persistent fault raises one incident, not one
alarm per window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.columnar import ColumnarDetectionEngine, ScoredWindow
from repro.core.detection import DetectedAnomaly, DetectorConfig
from repro.core.pinglist import ProbePair
from repro.network.issues import Symptom
from repro.network.packet import ProbeBatch, ProbeResult
from repro.obs.span import open_span

__all__ = ["Analyzer", "FailureEvent", "LoadConditionedAdmission"]

#: Simulated seconds without an anomaly after which an open incident
#: resolves.
RESOLVE_AFTER_S = 90.0
#: Bottleneck utilization from which a pair's path runs hot.
HOT_UTILIZATION = 0.7
#: How far, scaled by hotness, a hot pair's latency anomaly must beat
#: its detector's base threshold.
HEADROOM = 1.5
#: The z-test scores |z| but thresholds on alpha; 3.9 is the two-sided
#: critical value at the default alpha=1e-4.
ZTEST_BASE = 3.9


class LoadConditionedAdmission:
    """Raises latency thresholds on pairs whose paths run hot.

    Congestion on a heavily-utilized link inflates latency without any
    component having failed; admitting those anomalies at the standard
    thresholds misclassifies congestion collapse as a link failure.
    This filter conditions admission on a
    :class:`~repro.network.load.LinkLoadModel`: a ``HIGH_LATENCY``
    anomaly whose pair's path distribution (the routes its probes
    resolved to) averages at least
    :data:`HOT_UTILIZATION` bottleneck utilization must beat its
    detector's base threshold by a load-scaled :data:`HEADROOM` factor.
    Loss and unconnectivity anomalies are never suppressed — packets
    dropping is a failure signal regardless of load.

    The decision is pure arithmetic over the anomaly and the (static)
    load model, so it is identical across shard counts.  A pair's
    utilization is computed when first asked for and kept.
    """

    def __init__(self, load_model, fabric) -> None:
        self.load_model = load_model
        self.fabric = fabric
        self._cache: Dict[ProbePair, float] = {}

    def pair_utilization(self, pair: ProbePair) -> float:
        """Mean bottleneck utilization over the pair's path distribution."""
        cached = self._cache.get(pair)
        if cached is not None:
            return cached
        (paths,) = self.fabric.resolution_cache.paths_of([pair])
        utilization = (
            self.load_model.distribution_utilization(paths)
            if paths else 0.0
        )
        self._cache[pair] = utilization
        return utilization

    def admit(self, anomaly, base_threshold: Optional[float]) -> bool:
        """Whether the anomaly survives load conditioning."""
        if anomaly.symptom is not Symptom.HIGH_LATENCY:
            return True
        utilization = self.pair_utilization(anomaly.pair)
        if utilization < HOT_UTILIZATION:
            return True
        if anomaly.detector == "long_term_ztest":
            base_threshold = ZTEST_BASE
        if base_threshold is None:
            return True
        hotness = (utilization - HOT_UTILIZATION) / max(
            1e-9, 1.0 - HOT_UTILIZATION
        )
        required = base_threshold * (1.0 + HEADROOM * hotness)
        return abs(anomaly.score) >= required


@dataclass
class FailureEvent:
    """One incident: a pair misbehaving over a contiguous stretch."""

    pair: ProbePair
    first_detected_at: float
    symptom: Symptom
    anomalies: List[DetectedAnomaly] = field(default_factory=list)
    resolved_at: Optional[float] = None

    @property
    def open(self) -> bool:
        """Whether the incident is still active."""
        return self.resolved_at is None

    @property
    def key(self) -> Tuple[ProbePair, float]:
        """A stable identity for the incident.

        ``id(event)`` is unusable as a dedup key — CPython reuses object
        ids after garbage collection — but (pair, first detection time)
        uniquely names an incident: the analyzer never opens two events
        for one pair at the same instant.
        """
        return (self.pair, self.first_detected_at)

    @property
    def last_seen_at(self) -> float:
        """Time of the most recent anomaly in the incident."""
        if not self.anomalies:
            return self.first_detected_at
        return max(a.detected_at for a in self.anomalies)

    def absorb(self, anomaly: DetectedAnomaly) -> None:
        """Attach a further anomaly to the incident.

        Unconnectivity dominates packet loss dominates high latency when
        deciding the incident's overall symptom.
        """
        self.anomalies.append(anomaly)
        precedence = {
            Symptom.UNCONNECTIVITY: 2,
            Symptom.PACKET_LOSS: 1,
            Symptom.HIGH_LATENCY: 0,
        }
        if precedence[anomaly.symptom] > precedence[self.symptom]:
            self.symptom = anomaly.symptom


class Analyzer:
    """Routes probe results through the detection engine into incidents.

    All pairs' windows live in one
    :class:`~repro.core.columnar.ColumnarDetectionEngine`; window
    scoring is *deferred* to :meth:`flush` (or an incident-ordering
    drain on the fast-unconnectivity path) and runs batched across
    pairs.  ``ingest`` therefore returns only fast-path anomalies.
    """

    def __init__(
        self,
        config: Optional[DetectorConfig] = None,
        recorder=None,
    ) -> None:
        # Constructed per instance: a shared default instance would leak
        # one analyzer's tuning into every other (see repro.verify.lint,
        # rule "shared-instance-default").
        config = config if config is not None else DetectorConfig()
        self.config = config
        self.recorder = recorder
        # Optional load conditioning, assigned before the first probe
        # is ingested: anomalies are run through the filter before
        # entering the incident bookkeeping.
        self.load_filter: Optional[LoadConditionedAdmission] = None
        # Detector-config flags are hoisted out of the per-probe path.
        self._fast_enabled = config.fast_unconnectivity_probes > 0
        self._fast_threshold = config.fast_unconnectivity_probes
        self._engine = ColumnarDetectionEngine(config)
        self._open_events: Dict[ProbePair, FailureEvent] = {}
        self.events: List[FailureEvent] = []
        self.anomalies: List[DetectedAnomaly] = []

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def ingest(self, result: ProbeResult) -> List[DetectedAnomaly]:
        """Feed one probe result; returns anomalies detected *now* —
        :meth:`ingest_batch` over a single row."""
        return self.ingest_batch(ProbeBatch(
            [(result.src, result.dst)], np.array([result.sent_at]),
            np.array([result.lost]),
            np.array([np.nan if result.lost else result.latency_us]),
        ))

    def ingest_batch(self, batch: ProbeBatch) -> List[DetectedAnomaly]:
        """Feed a batch of probe results; returns anomalies detected
        *now*.

        Window scoring is deferred to :meth:`flush`; only a
        fast-unconnectivity alarm — a run of consecutive losses that
        looks like a dead path, raised without waiting for the
        30-second window to close — surfaces here.  The batch is
        scattered into the engine's columns first and the alarms of the
        rows whose run just reached the threshold follow in input
        order: what an alarm drains and records depends on its own
        row alone, so the verdict stream is the one probe-by-probe
        ingestion gives.
        """
        engine = self._engine
        rows = engine.ingest_batch(
            batch.pairs, batch.sent_at, batch.lost, batch.latency_us
        )
        new: List[DetectedAnomaly] = []
        if rows is None:  # a pair repeats: its probes go one by one
            for i in range(len(batch)):
                new.extend(self.ingest_batch(batch[i:i + 1]))
            return new
        if self._fast_enabled:
            alarmed = np.flatnonzero(batch.lost & (
                engine.consecutive_losses(rows) == self._fast_threshold
            ))
            for i in alarmed.tolist():
                new.extend(self._fast_alarm(
                    int(rows[i]), float(batch.sent_at[i])
                ))
        engine.queue_elapsed_longs(rows, batch.sent_at)
        return new

    def _fast_alarm(self, row: int, at: float) -> List[DetectedAnomaly]:
        # Score this pair's queued windows *before* recording the
        # fast anomaly, so the incident's first_detected_at is the
        # earliest evidence in probe order.
        new = self._process_verdicts(self._engine.collect_rows(
            [row], full=self.recorder is not None,
            watch=self._open_events,
        ))
        anomaly = DetectedAnomaly(
            pair=self._engine.pair_of(row), detected_at=at,
            symptom=Symptom.UNCONNECTIVITY, detector="fast_loss",
            score=float(self._fast_threshold),
            window_start=at,
        )
        self._record(anomaly)
        new.append(anomaly)
        return new

    def flush(self, now: float) -> List[DetectedAnomaly]:
        """Close all elapsed windows across every monitored pair."""
        with open_span(self.recorder, "analyzer.flush", sim_time=now) as span:
            self._engine.close_elapsed(now)
            new = self._process_verdicts(self._engine.collect(
                full=self.recorder is not None, watch=self._open_events,
            ))
            span.set(pairs=self._engine.num_pairs, anomalies=len(new))
        return new

    def _process_verdicts(
        self, verdicts: Sequence[ScoredWindow]
    ) -> List[DetectedAnomaly]:
        """Fold batched engine verdicts into the incident bookkeeping:
        recorder events for scored windows, ``_record`` for anomalies,
        resolution checks for healthy short windows.
        """
        new: List[DetectedAnomaly] = []
        recorder = self.recorder
        cfg = self.config
        for v in verdicts:
            if v.kind == "short":
                if v.sent == 0:
                    # A window with no probes is a *missing* round
                    # (crashed agent, lost reports, pair dropped from
                    # the list), not a healthy one: it must neither
                    # feed the detectors nor resolve an open event as
                    # "recovered".
                    if recorder is not None:
                        recorder.count("windows.skipped_empty")
                    continue
                if v.score is not None and recorder is not None:
                    recorder.event(
                        "detect.lof", sim_time=v.window_end,
                        pair=f"{v.pair.src}<->{v.pair.dst}",
                        score=float(v.score),
                        threshold=cfg.lof_threshold,
                        median_shifted=bool(v.median_shifted),
                        anomalous=v.anomaly is not None,
                    )
                if v.anomaly is not None and self._admit(v.anomaly):
                    new.append(v.anomaly)
                    self._record(v.anomaly)
                else:
                    self._maybe_resolve(v.pair, v.window_end)
            else:
                if v.score is not None and recorder is not None:
                    recorder.event(
                        "detect.ztest", sim_time=v.window_end,
                        pair=f"{v.pair.src}<->{v.pair.dst}",
                        z=float(v.score), alpha=cfg.ztest_alpha,
                        samples=v.samples,
                        anomalous=v.anomaly is not None,
                    )
                if v.anomaly is not None and self._admit(v.anomaly):
                    new.append(v.anomaly)
                    self._record(v.anomaly)
        return new

    # ------------------------------------------------------------------
    # Scoring and incident management
    # ------------------------------------------------------------------

    def _admit(self, anomaly: DetectedAnomaly) -> bool:
        """Run the anomaly through load conditioning, if configured.

        A suppressed window counts as healthy for incident resolution:
        load explained the latency, so the pair is not misbehaving.
        """
        if self.load_filter is None:
            return True
        if self.load_filter.admit(
            anomaly, self._threshold_of(anomaly.detector)
        ):
            return True
        if self.recorder is not None:
            self.recorder.count("anomalies.suppressed_load")
            self.recorder.event(
                "detect.suppressed_load",
                sim_time=anomaly.detected_at,
                pair=f"{anomaly.pair.src}<->{anomaly.pair.dst}",
                detector=anomaly.detector,
                score=float(anomaly.score),
            )
        return False

    def _record(self, anomaly: DetectedAnomaly) -> None:
        self.anomalies.append(anomaly)
        recorder = self.recorder
        if recorder is not None:
            recorder.count("anomalies.detected")
            recorder.event(
                "detect.anomaly", sim_time=anomaly.detected_at,
                pair=f"{anomaly.pair.src}<->{anomaly.pair.dst}",
                detector=anomaly.detector,
                symptom=anomaly.symptom.value,
                score=float(anomaly.score),
                threshold=self._threshold_of(anomaly.detector),
                window_start=anomaly.window_start,
            )
        event = self._open_events.get(anomaly.pair)
        if event is not None and event.open:
            event.absorb(anomaly)
            return
        event = FailureEvent(
            pair=anomaly.pair,
            first_detected_at=anomaly.detected_at,
            symptom=anomaly.symptom,
        )
        event.anomalies.append(anomaly)
        self._open_events[anomaly.pair] = event
        self.events.append(event)
        if recorder is not None:
            recorder.count("events.opened")
            recorder.event(
                "detect.event_opened", sim_time=anomaly.detected_at,
                pair=f"{event.pair.src}<->{event.pair.dst}",
                symptom=event.symptom.value,
            )

    def _threshold_of(self, detector: str) -> Optional[float]:
        """The alarm threshold the named detector applied."""
        return {
            "short_term_lof": self.config.lof_threshold,
            "loss_rule": self.config.loss_rate_threshold,
            "fast_loss": float(self.config.fast_unconnectivity_probes),
            "long_term_ztest": self.config.ztest_alpha,
        }.get(detector)

    def _maybe_resolve(self, pair: ProbePair, window_end: float) -> None:
        event = self._open_events.get(pair)
        if event is None or not event.open:
            return
        if window_end - event.last_seen_at >= RESOLVE_AFTER_S:
            self._resolve(event, window_end)

    def _resolve(self, event: FailureEvent, at: float, **why) -> None:
        """Close an open incident — the one place that counts and
        traces it (``why`` joins the trace event), so opened − resolved
        is always the open count."""
        event.resolved_at = at
        del self._open_events[event.pair]
        if self.recorder is not None:
            self.recorder.count("events.resolved")
            self.recorder.event(
                "detect.event_resolved",
                sim_time=at,
                pair=f"{event.pair.src}<->{event.pair.dst}",
                duration_s=at - event.first_detected_at,
                **why,
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def open_events(self) -> List[FailureEvent]:
        """Incidents that are still active."""
        return [e for e in self._open_events.values() if e.open]

    def reset_pairs_involving(self, endpoints, now: float) -> List[
        ProbePair
    ]:
        """Invalidate monitoring state for pairs touching ``endpoints``.

        Called when the control plane *changed* the data path (e.g. a
        container migration): the old latency baseline is no longer
        meaningful, so the pair's windows, detector baselines, and any
        open incident are discarded and rebuilt from fresh probes.
        """
        targets = set(endpoints)
        engine = self._engine
        affected = [
            pair for pair in engine.pairs()
            if pair.src in targets or pair.dst in targets
        ]
        # Score what already closed before discarding: dropping the
        # pending windows here would silently lose their verdicts.
        rows = [engine.row_of(pair) for pair in affected]
        self._process_verdicts(engine.collect_rows(
            [row for row in rows if row is not None],
            full=self.recorder is not None,
            watch=self._open_events,
        ))
        for pair in affected:
            engine.drop(pair)
            event = self._open_events.get(pair)
            if event is not None:
                self._resolve(event, now, reason="path_changed")
        return affected

    def events_between(
        self, start: float, end: float
    ) -> List[FailureEvent]:
        """Incidents first detected inside [start, end)."""
        return [
            e for e in self.events if start <= e.first_detected_at < end
        ]

    def monitored_pairs(self) -> List[ProbePair]:
        """Every pair that has reported at least one probe."""
        return sorted(self._engine.pairs())
