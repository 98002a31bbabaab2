"""Metric names, units and bounds — and how each value is derived.

Two tables name everything the benchmark reports:

* :data:`END_TO_END` — what a user of the system sees, measured with
  tracing off, times in reference seconds (``bench/speed.py``).  Each
  row fixes the regression bound ``compare.py`` judges by and the
  workloads the metric applies to.
* :data:`PER_LAYER` — work, busy time and waste of single layers,
  measured in the traced pass.  Loop-layer times and call counts are
  **per monitoring round** (self time summed over the measured rounds,
  divided by their number) so runs of different length compare;
  set-up, replay and shard/fleet run-level spans are per run.  The
  trace file keeps the raw spans for any other cut.

``BENCHMARK.json`` lists the first five end-to-end rows (the ones every
workload reports and that are never zero) under ``end_to_end`` and the
other five, which apply to some workloads only or may be zero, under
``per_layer`` beside the layer metrics; ``bench/README.md`` says why.
"""

from __future__ import annotations

import os
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from bench.trace import (
    LayerStats,
    Span,
    aggregate,
    modeled_cost_s,
)

__all__ = [
    "END_TO_END",
    "EXACT",
    "PER_LAYER",
    "end_to_end",
    "per_layer",
    "percentile",
]

ALL = ("steady-2048", "faultstorm-256", "sharded-2048-mp2", "fleet-16x64")
FAULTED = ALL[1:]
ROUND_DRIVEN = ALL[:2]

#: name -> (unit, better, bound, workloads).  A bound of 0.0 means
#: exact per seed: any difference between two commits is a finding.
#: Times are reference seconds (``bench/speed.py``).  Every bounded
#: metric carries the widest bound the contract allows; unchanged code
#: spreads 3-8% over ten seeds (quartile distance over median; the
#: README's Steadiness table), so most of the bound is margin.
END_TO_END: Dict[str, Tuple[str, str, float, Tuple[str, ...]]] = {
    "setup_s": ("s", "lower", 0.25, ALL),
    "round_wall_p50_s": ("s", "lower", 0.25, ALL),
    "probes_per_s": ("1/s", "higher", 0.25, ALL),
    "cpu_s_per_kprobe": ("s/kprobe", "lower", 0.25, ALL),
    "peak_rss_mb": ("MB", "lower", 0.25, ALL),
    "replay_wall_s": ("s", "lower", 0.25, ("faultstorm-256",)),
    "detect_delay_sim_s": ("s", "lower", 0.0, FAULTED),
    "faults_detected_frac": ("frac", "higher", 0.0, FAULTED),
    "faults_localized_frac": ("frac", "higher", 0.0, FAULTED),
    "false_positive_events": ("count", "lower", 0.0, ALL),
}

#: The per-seed-exact metrics (plus ``output_digest``, a string).
EXACT = tuple(
    name for name, row in END_TO_END.items() if row[2] == 0.0
)

#: Every workload reports these and none is ever zero: the driver's
#: ``end_to_end`` list.  The rest ride in its ``per_layer`` list.
DRIVER_END_TO_END = (
    "setup_s", "round_wall_p50_s", "probes_per_s", "cpu_s_per_kprobe",
    "peak_rss_mb",
)

#: name -> (unit, better).
PER_LAYER: Dict[str, Tuple[str, str]] = {
    # core.pinglist / core.agent
    "pinglist.active_pairs_s": ("s", "lower"),
    "pinglist.active_pairs_calls": ("count", "lower"),
    "pinglist.scan_amplification": ("ratio", "lower"),
    "agent.my_pairs_s": ("s", "lower"),
    "agent.execute_round_self_s": ("s", "lower"),
    "agent.rounds_skipped": ("count", "lower"),
    # network.fabric
    "fabric.send_probe_batch_s": ("s", "lower"),
    "fabric.batches_per_round": ("count", "lower"),
    "fabric.probes_per_batch": ("count", "higher"),
    "fabric.send_probe_retry_calls": ("count", "lower"),
    "fabric.cache_hit_ratio": ("ratio", "higher"),
    "fabric.probes_lost": ("count", "lower"),
    # core.analyzer / core.columnar
    "analyzer.ingest_s": ("s", "lower"),
    "analyzer.ingest_calls": ("count", "lower"),
    "analyzer.flush_s": ("s", "lower"),
    "analyzer.flush_p95_s": ("s", "lower"),
    "analyzer.anomalies": ("count", "lower"),
    "analyzer.events_opened": ("count", "lower"),
    # core.localization / core.tomography
    "localizer.localize_s": ("s", "lower"),
    "localizer.calls": ("count", "lower"),
    "localizer.events_per_call": ("count", "higher"),
    "localizer.diagnoses": ("count", "higher"),
    "localizer.unexplained": ("count", "lower"),
    # core.skeleton / core.controller
    "skeleton.infer_s": ("s", "lower"),
    "skeleton.edges": ("count", "lower"),
    "controller.preload_s": ("s", "lower"),
    "controller.apply_skeleton_s": ("s", "lower"),
    "pinglist.reduction_ratio": ("ratio", "higher"),
    # core.system / sim.engine
    "hunter.round_self_s": ("s", "lower"),
    "hunter.round_wall_p95_s": ("s", "lower"),
    # bus
    "bus.publish_s": ("s", "lower"),
    "bus.records": ("count", "lower"),
    "bus.dropped": ("count", "lower"),
    "recorder.bytes_per_round": ("B", "lower"),
    "replay.load_s": ("s", "lower"),
    "replay.decode_s": ("s", "lower"),
    "replay.self_s": ("s", "lower"),
    "replay.probes_per_s": ("1/s", "higher"),
    # shard
    "shard.partition_s": ("s", "lower"),
    "shard.spawn_s": ("s", "lower"),
    "shard.worker_wait_s": ("s", "lower"),
    "shard.merge_self_s": ("s", "lower"),
    "shard.chunk_wall_p50_s": ("s", "lower"),
    "shard.pair_imbalance": ("ratio", "lower"),
    # fleet
    "fleet.allocate_s": ("s", "lower"),
    "fleet.select_pairs_s": ("s", "lower"),
    "fleet.run_rounds_s": ("s", "lower"),
    "fleet.replica_build_s": ("s", "lower"),
    "fleet.critical_path_modeled_s": ("s", "lower"),
    "fleet.coverage_min": ("frac", "higher"),
    "fleet.coverage_floor_violations": ("count", "lower"),
    "fleet.budget_violations": ("count", "lower"),
    # harness
    "trace.overhead_frac": ("frac", "lower"),
    "trace.overhead_modeled_frac": ("frac", "lower"),
    "trace.layer_coverage_frac": ("frac", "higher"),
    "harness.slowdown": ("ratio", "lower"),
    "harness.loadavg_1m": ("load", "lower"),
    "harness.nproc": ("count", "higher"),
}

#: The per-round layer times that together should account for a traced
#: round on the round-driven workloads (acceptance: within 5%).
ROUND_LAYER_TIMES = (
    "pinglist.active_pairs_s", "agent.my_pairs_s",
    "agent.execute_round_self_s", "fabric.send_probe_batch_s",
    "analyzer.ingest_s", "analyzer.flush_s", "localizer.localize_s",
    "bus.publish_s", "hunter.round_self_s",
)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(result) -> Dict[str, float]:
    """All ten end-to-end values of one untraced pass."""
    outcome = result.outcome
    kprobes = max(result.probes_sent, 1) / 1000.0
    return {
        "setup_s": statistics.median(result.setup_samples),
        "round_wall_p50_s": result.round_wall_p50()[0],
        "probes_per_s": result.probes_sent / result.wall_s,
        "cpu_s_per_kprobe": result.cpu_s / kprobes,
        "peak_rss_mb": result.peak_rss_mb,
        "replay_wall_s": result.replay_wall_s,
        "detect_delay_sim_s": outcome.detect_delay_sim_s,
        "faults_detected_frac": outcome.faults_detected_frac,
        "faults_localized_frac": outcome.faults_localized_frac,
        "false_positive_events": float(outcome.false_positive_events),
    }


def _stat(stats: Dict[str, LayerStats], name: str) -> LayerStats:
    return stats.get(name) or LayerStats()


def per_layer(
    untraced, traced, spans: List[Span], span_costs: Tuple[float, float]
) -> Dict[str, float]:
    """Every per-layer value, from the traced pass's spans and the
    program's own counters; ``untraced`` is the same workload and seed
    measured with tracing off, the base of ``trace.overhead_frac``;
    ``span_costs`` is :func:`bench.trace.calibrate`'s result, the base
    of ``trace.overhead_modeled_frac``."""
    outcome = traced.outcome
    counters = outcome.counters
    rounds = max(outcome.rounds, 1)
    loop = aggregate(spans, ("hunter.round", "ShardCoordinator.run",
                             "FleetCoordinator.run"))
    setup = aggregate(spans, ("setup",))
    replay = aggregate(spans, ("replay",))

    def per_round(name: str, field: str = "self_s") -> float:
        return getattr(_stat(loop, name), field) / rounds

    active = _stat(loop, "PingList.active_pairs")
    batches = _stat(loop, "DataPlaneFabric.send_probe_batch")
    flush = _stat(loop, "Analyzer.flush")
    localize = _stat(loop, "Localizer.localize")
    round_spans = _stat(loop, "hunter.round")
    probes = max(outcome.probes_sent, 1)
    hits = counters.get("fabric.cache_hits", 0.0)
    misses = counters.get("fabric.cache_misses", 0.0)
    replay_span = _stat(replay, "Replayer.replay")
    finish = _stat(loop, "MultiprocessingHandle.finish_chunk")

    values = {
        "pinglist.active_pairs_s": per_round("PingList.active_pairs"),
        "pinglist.active_pairs_calls": per_round(
            "PingList.active_pairs", "calls"
        ),
        "pinglist.scan_amplification": (
            active.attrs.get("scanned", 0.0) / probes
        ),
        "agent.my_pairs_s": per_round("OverlayAgent.my_pairs"),
        "agent.execute_round_self_s": per_round(
            "OverlayAgent.execute_round"
        ),
        "agent.rounds_skipped": counters.get("agent.rounds_skipped", 0),
        "fabric.send_probe_batch_s": (
            per_round("DataPlaneFabric.send_probe_batch")
            + per_round("DataPlaneFabric.send_probe")
        ),
        "fabric.batches_per_round": batches.calls / rounds,
        "fabric.probes_per_batch": (
            batches.attrs.get("probes", 0.0) / max(batches.calls, 1)
        ),
        "fabric.send_probe_retry_calls": _stat(
            loop, "DataPlaneFabric.send_probe"
        ).calls,
        "fabric.cache_hit_ratio": hits / max(hits + misses, 1.0),
        "fabric.probes_lost": counters.get("fabric.probes_lost", 0),
        "analyzer.ingest_s": per_round("Analyzer.ingest"),
        "analyzer.ingest_calls": per_round("Analyzer.ingest", "calls"),
        "analyzer.flush_s": per_round("Analyzer.flush"),
        "analyzer.flush_p95_s": percentile(flush.durations, 95),
        "analyzer.anomalies": counters.get("analyzer.anomalies", 0),
        "analyzer.events_opened": counters.get(
            "analyzer.events_opened", 0
        ),
        "localizer.localize_s": per_round("Localizer.localize"),
        "localizer.calls": localize.calls,
        "localizer.events_per_call": (
            localize.attrs.get("events", 0.0) / max(localize.calls, 1)
        ),
        "localizer.diagnoses": localize.attrs.get("diagnoses", 0.0),
        "localizer.unexplained": localize.attrs.get("unexplained", 0.0),
        "skeleton.infer_s": _stat(setup, "SkeletonInference.infer").self_s,
        "skeleton.edges": _stat(
            setup, "SkeletonInference.infer"
        ).attrs.get("edges", 0.0),
        "controller.preload_s": _stat(
            setup, "Controller.preload_task"
        ).self_s,
        "controller.apply_skeleton_s": _stat(
            setup, "Controller.apply_skeleton"
        ).self_s,
        "pinglist.reduction_ratio": (
            counters.get("pinglist.basic_pairs", 0.0)
            / max(counters.get("pinglist.skeleton_pairs", 0.0), 1.0)
        ),
        "hunter.round_self_s": per_round("hunter.round"),
        "hunter.round_wall_p95_s": percentile(round_spans.durations, 95),
        "bus.publish_s": per_round("TelemetryBus.publish"),
        "bus.records": counters.get("bus.records", 0),
        "bus.dropped": counters.get("bus.dropped", 0),
        "recorder.bytes_per_round": (
            counters.get("recorder.bytes", 0.0) / rounds
        ),
        "replay.load_s": _stat(replay, "load_recording").self_s,
        "replay.decode_s": _stat(replay, "decode_probe_rows").self_s,
        "replay.self_s": replay_span.self_s,
        "replay.probes_per_s": (
            counters.get("replay.probes", 0.0) / replay_span.busy
            if replay_span.busy else 0.0
        ),
        "shard.partition_s": _stat(
            setup, "TopologyPartitioner.partition"
        ).self_s,
        "shard.spawn_s": _stat(
            setup, "MultiprocessingBackend.spawn"
        ).self_s,
        "shard.worker_wait_s": finish.self_s,
        "shard.merge_self_s": _stat(loop, "ShardCoordinator.run").self_s,
        "shard.chunk_wall_p50_s": _chunk_wall_p50(spans),
        "shard.pair_imbalance": counters.get("shard.pair_imbalance", 0),
        "fleet.allocate_s": per_round("ProbeBudgetScheduler.allocate"),
        "fleet.select_pairs_s": per_round(
            "ProbeBudgetScheduler.select_pairs"
        ),
        "fleet.run_rounds_s": per_round("FleetController.run_rounds"),
        "fleet.replica_build_s": _stat(
            setup, "build_fleet_replica"
        ).self_s,
        "fleet.critical_path_modeled_s": counters.get(
            "fleet.critical_path_modeled_s", 0.0
        ),
        "fleet.coverage_min": counters.get("fleet.coverage_min", 0.0),
        "fleet.coverage_floor_violations": counters.get(
            "fleet.coverage_floor_violations", 0
        ),
        "fleet.budget_violations": counters.get(
            "fleet.budget_violations", 0
        ),
        "trace.overhead_frac": (
            traced.round_wall_p50()[0]
            / untraced.round_wall_p50()[0] - 1.0
        ),
        "trace.overhead_modeled_frac": (
            modeled_cost_s(spans, *span_costs)
            / sum(span.busy for span in spans if span.parent is None)
        ),
        "harness.slowdown": untraced.slowdown,
        "harness.loadavg_1m": os.getloadavg()[0],
        "harness.nproc": float(os.cpu_count() or 1),
    }
    traced_round = round_spans.busy / rounds
    values["trace.layer_coverage_frac"] = (
        sum(values[name] for name in ROUND_LAYER_TIMES) / traced_round
        if traced_round else 0.0
    )
    # Spans carry host seconds; the traced pass's slowdown turns the
    # times (and the one rate) into reference seconds.
    for name, (unit, _) in PER_LAYER.items():
        if unit == "s":
            values[name] /= traced.slowdown
        elif unit == "1/s":
            values[name] *= traced.slowdown
    return {name: float(values[name]) for name in PER_LAYER}


def _chunk_wall_p50(spans: List[Span]) -> float:
    """Median wall of a shard chunk: from the first ``begin_chunk`` of
    one chunk to the first of the next (the run's end for the last)."""
    run: Optional[Span] = next(
        (s for s in spans if s.name == "ShardCoordinator.run"), None
    )
    if run is None:
        return 0.0
    starts: Dict[float, float] = {}
    for span in spans:
        if span.name == "MultiprocessingHandle.begin_chunk":
            key = span.attrs.get("start_round", 0.0)
            starts[key] = min(starts.get(key, span.start), span.start)
    edges = sorted(starts.values()) + [run.end]
    walls = [b - a for a, b in zip(edges, edges[1:])]
    return statistics.median(walls) if walls else 0.0
