"""The four benchmark workloads, driven through ``repro``'s public API.

Each workload is a class with three methods the runner calls:

* ``setup()`` builds everything up to (not including) the first
  monitoring round and returns a state object — its wall time is one
  ``setup_s`` sample;
* ``measure(state, seconds, tracer)`` runs the measured phase and
  returns an :class:`Outcome` with timings, simulated results, ground
  truth scores and the operation tally;
* ``discard(state)`` releases a set-up that will not be measured.

Inputs are a pure function of ``(seed, smoke)``: the scenario seed is
the benchmark seed and fault targets are drawn from
``random.Random(seed)``; the program only ever sees the generated
inputs.  Why each workload exists is recorded in :data:`WHY` (and in
``BENCHMARK.json``).

The full sizes are the largest that keep the driver's whole series of
runs inside its time cap on a 2-core box; ``bench/README.md`` lists
where they are smaller than the issue's first sizing and why.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import repro.bus.replay as bus_replay
from repro import (
    IssueType,
    JsonlRecorder,
    TelemetryBus,
    build_scenario,
)
from repro.cluster.identifiers import ContainerId, EndpointId, TaskId
from repro.core.evaluation import CampaignScorer, FaultOutcome
from repro.core.localization import Diagnosis, LocalizationReport
from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.lifecycle import demand_table
from repro.fleet.spec import FleetSpec, TenantSpec, tenant_pairs
from repro.network.issues import ComponentClass, GrayIssueType, spec_of
from repro.shard.backend import MultiprocessingBackend
from repro.shard.coordinator import ShardCoordinator
from repro.shard.spec import (
    FaultSpec,
    MonitorFaultSpec,
    ShardScenarioSpec,
    build_replica,
)

__all__ = ["Outcome", "WHY", "WORKLOADS", "maybe_span", "out_dir"]

PROBE_INTERVAL_S = 2.0

#: Two ``time.perf_counter`` readings: (start, end).
Interval = Tuple[float, float]

WHY = {
    "steady-2048": (
        "one 2048-endpoint job, no faults, no bus: the single-job hot "
        "path, where the ping-list scan per agent does nearly all the "
        "work today"
    ),
    "faultstorm-256": (
        "8 catalogue faults with ground truth under a recording bus, "
        "then replay: the only load on analyzer anomaly path, "
        "localizer, bus, codec and recorder"
    ),
    "sharded-2048-mp2": (
        "the same agent-fabric-analyzer loop split over two worker "
        "processes, merged and voted: the only load on partition, "
        "spawn, pipes and merge; what sharding costs, all on one "
        "pinned CPU"
    ),
    "fleet-16x64": (
        "16 small churning tenants under one probe budget: scan is "
        "cheap here, scheduler, per-tenant pipelines and coordinator "
        "merge do the work, so a ping-list fix should show nothing"
    ),
}


def out_dir() -> str:
    """``bench/out`` (created on demand; named by ``.gitignore``)."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(path, exist_ok=True)
    return path


@dataclass
class Outcome:
    """What one measured phase produced."""

    rounds: int
    probes_sent: int
    probes_lost: int
    #: ``perf_counter`` readings around the measured phase (the
    #: throughput denominator) and the process CPU seconds, self +
    #: reaped children, it burned.  Readings, not durations: the
    #: runner converts them to reference seconds (``bench/speed.py``).
    phase: Interval
    cpu_s: float
    #: Readings around every round, when rounds are driven from here,
    #: and around the replay.
    round_spans: List[Interval] = field(default_factory=list)
    replay_span: Optional[Interval] = None
    ops_attempted: int = 0
    ops_failed: int = 0
    #: Ground-truth scores (the per-seed-exact end-to-end metrics).
    detect_delay_sim_s: float = 0.0
    faults_detected_frac: float = 0.0
    faults_localized_frac: float = 0.0
    false_positive_events: int = 0
    #: Sorted, JSON-ready simulated results the digest covers.
    events: List[list] = field(default_factory=list)
    verdicts: List[list] = field(default_factory=list)
    digest_extra: List[object] = field(default_factory=list)
    #: Hard failures: a non-empty list fails the whole run.
    problems: List[str] = field(default_factory=list)
    #: Counters read off the program's own public state.
    counters: Dict[str, float] = field(default_factory=dict)

    def digest(self) -> str:
        """sha256 over the simulated results (wall-clock free)."""
        blob = json.dumps(
            [self.events, self.verdicts, self.digest_extra],
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cpu_seconds() -> float:
    """Process CPU seconds so far, self plus reaped children."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in map(
            resource.getrusage,
            (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN),
        )
    )


def maybe_span(tracer, name: str):
    """A span on ``tracer``, or nothing when the pass is untraced."""
    return tracer.span(name) if tracer is not None else nullcontext()


def _verdict_rows(reports) -> List[list]:
    return [
        [
            at,
            [
                [d.component, d.component_class.value, d.layer,
                 round(d.confidence, 9)]
                for d in report.diagnoses
            ],
            len(report.unexplained),
        ]
        for at, report in reports
    ]


def _event_rows(events) -> List[list]:
    return sorted(
        [str(e.pair.src), str(e.pair.dst), e.first_detected_at,
         e.symptom.value]
        for e in events
    )


def _apply_score(
    outcome: Outcome, score, outcomes: Sequence[FaultOutcome]
) -> None:
    """Fold a :class:`CampaignScorer` result into ``outcome``: one
    operation per observable fault, failed unless it was detected *and*
    localized to a ground-truth culprit."""
    observable = [o for o in outcomes if o.observable]
    detected = [o for o in observable if o.detected]
    localized = [o for o in detected if o.localized]
    outcome.ops_attempted += len(observable)
    outcome.ops_failed += len(observable) - len(localized)
    if observable:
        outcome.faults_detected_frac = len(detected) / len(observable)
        outcome.faults_localized_frac = len(localized) / len(observable)
    if score.mean_detection_delay_s is not None:
        outcome.detect_delay_sim_s = score.mean_detection_delay_s
    outcome.false_positive_events = score.false_positive_events
    if len(observable) != len(outcomes):
        outcome.problems.append(
            f"{len(outcomes) - len(observable)} injected fault(s) "
            f"crossed no monitored pair — the workload is mis-sized"
        )


def _apply_skeleton(scenario) -> Tuple[int, int]:
    """Apply the inferred skeleton at t=0; returns the ping list's
    (basic, skeleton) pair counts."""
    controller = scenario.hunter.controller
    basic = len(controller.ping_list_of(scenario.task.id))
    scenario.apply_skeleton()
    return basic, len(controller.ping_list_of(scenario.task.id))


def _cache_counters(fabrics) -> Dict[str, float]:
    caches = [fabric.resolution_cache for fabric in fabrics]
    return {
        "fabric.cache_hits": sum(cache.hits for cache in caches),
        "fabric.cache_misses": sum(cache.misses for cache in caches),
    }


def _hunter_counters(scenario, pairs: Tuple[int, int]) -> Dict[str, float]:
    """Counters a single-job scenario exposes on its public state."""
    hunter = scenario.hunter
    controller = hunter.controller
    counters = _cache_counters([scenario.fabric])
    counters.update({
        "fabric.probes_lost": scenario.fabric.probes_lost,
        "pinglist.basic_pairs": pairs[0],
        "pinglist.skeleton_pairs": pairs[1],
        "agent.rounds_skipped": sum(
            agent.rounds_skipped
            for task_id in controller.monitored_tasks()
            for agent in controller.agents_of(task_id)
        ),
        "analyzer.anomalies": len(hunter.analyzer.anomalies),
        "analyzer.events_opened": len(hunter.events),
    })
    return counters


# ----------------------------------------------------------------------
# steady-2048
# ----------------------------------------------------------------------


class Steady:
    """One big healthy job in a closed loop of monitoring rounds."""

    name = "steady-2048"
    #: The digest covers exactly this many measured rounds, so it does
    #: not depend on how many rounds the time window happened to fit.
    MIN_ROUNDS = 2
    MAX_ROUNDS = 600

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.containers = 16 if smoke else 256
        self.max_rounds = 40 if smoke else self.MAX_ROUNDS

    def setup(self):
        scenario = build_scenario(
            num_containers=self.containers, gpus_per_container=8, pp=2,
            seed=self.seed, probe_interval_s=PROBE_INTERVAL_S,
        )
        return scenario, _apply_skeleton(scenario)

    def discard(self, state) -> None:
        pass

    def measure(self, state, seconds: float, tracer) -> Outcome:
        scenario, pairs = state
        hunter, fabric = scenario.hunter, scenario.fabric
        with maybe_span(tracer, "warmup"):
            scenario.run_for(PROBE_INTERVAL_S)
        gc.collect()
        sent0, lost0 = fabric.probes_sent, fabric.probes_lost
        spans: List[Interval] = []
        failed = 0
        digest_probes = None
        cpu0 = cpu_seconds()
        began = time.perf_counter()
        while True:
            events_before = len(hunter.events)
            start = time.perf_counter()
            with maybe_span(tracer, "hunter.round"):
                scenario.run_for(PROBE_INTERVAL_S)
            now = time.perf_counter()
            spans.append((start, now))
            # A fault-free round that opens an event is a failed op.
            failed += len(hunter.events) > events_before
            if len(spans) == self.MIN_ROUNDS:
                digest_probes = [
                    fabric.probes_sent - sent0,
                    fabric.probes_lost - lost0,
                ]
            if len(spans) >= self.max_rounds or (
                now - began >= seconds
                and len(spans) >= self.MIN_ROUNDS
            ):
                break
        outcome = Outcome(
            rounds=len(spans),
            probes_sent=fabric.probes_sent - sent0,
            probes_lost=fabric.probes_lost - lost0,
            phase=(began, time.perf_counter()),
            cpu_s=cpu_seconds() - cpu0,
            round_spans=spans,
            ops_attempted=len(spans),
            ops_failed=failed,
            false_positive_events=len(hunter.events),
            events=_event_rows(hunter.events),
            verdicts=_verdict_rows(hunter.reports),
            digest_extra=[digest_probes],
        )
        outcome.counters = _hunter_counters(scenario, pairs)
        return outcome


# ----------------------------------------------------------------------
# faultstorm-256
# ----------------------------------------------------------------------

#: The analyzer judges every symptom but unconnectivity per closed 30 s
#: window, i.e. per 15 rounds.
WINDOW_ROUNDS = 15

#: (issue, rounds on, injected on a window boundary, overrides).
#:
#: *Soft* faults (loss rate, latency) are injected on a window boundary
#: and held 20 rounds, so the first window after injection is entirely
#: faulty and detection does not depend on where in a window the fault
#: happened to start.  *Hard* faults (unconnectivity) alarm on the
#: analyzer's fast path after 4 straight losses; 8 rounds on is ample.
#:
#: Order matters because the hunter localizes over every event still
#: open (events resolve 90 s after their last anomaly): the soft
#: link/RNIC faults come first — the two latency ones last among them,
#: by when the untouched pairs have formed the 4-window LOF history the
#: issue's 64 fault-free rounds were there for — then the hard faults,
#: and only then the host-level latency fault, whose host intersection
#: needs a batch free of other soft events.
#:
#: The two probabilistic-loss faults run at 30% loss instead of the
#: catalogue's 8-10%: at 10% a crossing pair stays clean for a whole
#: 14-probe window 23% of the time, and on one seed in eight only one
#: of the link's three pairs alarms — a batch tomography cannot
#: intersect.  The workload must not fail operations by the luck of the
#: seed; severity is an input, the catalogue defines the fault's shape.
STORM_SCHEDULE = (
    (IssueType.CRC_ERROR, 20, True, {"loss_rate": 0.3}),
    (IssueType.RNIC_PORT_FLAPPING, 20, True, {}),
    (GrayIssueType.PARTIAL_LINK_DEGRADATION, 20, True,
     {"loss_rate": 0.3}),
    (IssueType.OFFLOADING_FAILURE, 20, True, {}),
    (IssueType.RNIC_PORT_DOWN, 8, False, {}),
    (IssueType.CONTAINER_CRASH, 8, False, {}),
    (IssueType.SWITCH_PORT_DOWN, 8, False, {}),
    (IssueType.HUGEPAGE_MISCONFIGURATION, 20, True, {}),
)
STORM_OFF_ROUNDS = 6


class FaultStorm:
    """Sequential catalogue faults, recorded live and then replayed."""

    name = "faultstorm-256"

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.containers = 8 if smoke else 32
        # Smoke keeps only the fast-path faults: 4 + 3 x (8 + 4) = 40.
        self.schedule = STORM_SCHEDULE[4:7] if smoke else STORM_SCHEDULE
        self.warm_rounds = 4 if smoke else WINDOW_ROUNDS
        self.off_rounds = 4 if smoke else STORM_OFF_ROUNDS
        #: Anti-vacuous floors: detected faults, verdict batches, events.
        self.floors = (3, 3, 3) if smoke else (4, 4, 20)
        self.path = os.path.join(
            out_dir(),
            f"recording-{self.name}{'-smoke' if smoke else ''}.jsonl",
        )

    def config(self) -> Dict[str, object]:
        """The recording header: what the replayer rebuilds from."""
        return {
            "kind": "bench_faultstorm",
            "seed": self.seed,
            "num_containers": self.containers,
            "gpus_per_container": 8,
            "pp": 2,
            "hosts_per_segment": 8,
            "probe_interval_s": PROBE_INTERVAL_S,
        }

    def setup(self):
        bus = TelemetryBus()
        recorder = JsonlRecorder(
            bus, self.path, config=self.config(), seed=self.seed
        )
        scenario = build_scenario(
            num_containers=self.containers, gpus_per_container=8, pp=2,
            seed=self.seed, probe_interval_s=PROBE_INTERVAL_S,
            hosts_per_segment=8, bus=bus,
        )
        pairs = _apply_skeleton(scenario)
        return scenario, bus, recorder, pairs

    def discard(self, state) -> None:
        state[2].close()

    def targets(self, scenario) -> List[object]:
        """One injection target per scheduled fault, each on a distinct
        container (hence distinct host, RNIC and access link)."""
        rng = random.Random(self.seed)
        task = scenario.task
        ranks = rng.sample(range(self.containers), len(self.schedule))
        chosen = []
        for (issue, *_), rank in zip(self.schedule, ranks):
            container = task.containers[ContainerId(task.id, rank)]
            endpoint = container.endpoints()[rng.randrange(8)]
            rnic = scenario.cluster.overlay.rnic_of(endpoint)
            kind = spec_of(issue).target_kind
            if kind == "container":
                chosen.append(container)
            elif kind == "host":
                chosen.append(rnic.host)
            elif kind == "link":
                chosen.append(_access_link(scenario, endpoint))
            else:
                chosen.append(rnic)
        return chosen

    def measure(self, state, seconds: float, tracer) -> Outcome:
        scenario, bus, recorder, pairs = state
        hunter, fabric = scenario.hunter, scenario.fabric
        targets = self.targets(scenario)
        spans: List[Interval] = []

        def rounds(count: int) -> None:
            for _ in range(count):
                start = time.perf_counter()
                with maybe_span(tracer, "hunter.round"):
                    scenario.run_for(PROBE_INTERVAL_S)
                spans.append((start, time.perf_counter()))

        gc.collect()
        cpu0 = cpu_seconds()
        began = time.perf_counter()
        rounds(self.warm_rounds)
        for (issue, on_rounds, aligned, overrides), target in zip(
            self.schedule, targets
        ):
            if aligned:
                rounds(-len(spans) % WINDOW_ROUNDS)
            with maybe_span(tracer, "faults"):
                fault = scenario.inject(issue, target, **overrides)
            rounds(on_rounds)
            with maybe_span(tracer, "faults"):
                scenario.clear(fault)
            rounds(self.off_rounds)
        phase = (began, time.perf_counter())
        cpu = cpu_seconds() - cpu0
        recorder.close()

        outcome = Outcome(
            rounds=len(spans),
            probes_sent=fabric.probes_sent,
            probes_lost=fabric.probes_lost,
            phase=phase,
            cpu_s=cpu,
            round_spans=spans,
            events=_event_rows(hunter.events),
            verdicts=_verdict_rows(hunter.reports),
            digest_extra=[fabric.probes_sent, fabric.probes_lost],
        )
        outcome.counters = _hunter_counters(scenario, pairs)
        outcome.counters.update({
            "bus.records": bus.published,
            "bus.dropped": bus.dropped,
            "recorder.bytes": os.path.getsize(self.path),
        })
        _apply_score(outcome, *scenario.score())
        self._replay(outcome, hunter, tracer)
        self._check_floors(outcome, hunter)
        return outcome

    def _replay(self, outcome: Outcome, hunter, tracer) -> None:
        """Load + replay + divergence check: one op, timed as a whole."""
        gc.collect()
        began = time.perf_counter()
        with maybe_span(tracer, "replay"):
            recording = bus_replay.load_recording(self.path)
            result = bus_replay.Replayer(recording).replay()
            divergences = result.divergences()
        outcome.replay_span = (began, time.perf_counter())
        outcome.ops_attempted += 1
        outcome.ops_failed += bool(divergences)
        outcome.problems.extend(divergences[:5])
        compared = (
            len(result.recorded_verdicts), len(result.replayed_verdicts),
            len(result.recorded_events), len(result.replayed_events),
            result.probes_ingested,
        )
        expected = (
            len(hunter.reports), len(hunter.reports),
            len(hunter.events), len(hunter.events),
            outcome.probes_sent,
        )
        if compared != expected:
            outcome.problems.append(
                f"replay compared {compared}, live produced {expected} "
                f"(verdicts x2, events x2, probes)"
            )
        outcome.counters["replay.probes"] = result.probes_ingested

    def _check_floors(self, outcome: Outcome, hunter) -> None:
        min_detected, min_verdicts, min_events = self.floors
        detected = round(
            outcome.faults_detected_frac * len(self.schedule)
        )
        for label, have, need in (
            ("detected faults", detected, min_detected),
            ("verdict batches", len(hunter.reports), min_verdicts),
            ("events", len(hunter.events), min_events),
        ):
            if have < need:
                outcome.problems.append(
                    f"anti-vacuous floor: {have} {label}, need {need}"
                )


def _access_link(scenario, endpoint: EndpointId):
    """The RNIC<->ToR link under ``endpoint`` (from a monitored pair's
    traced path, so the link is certainly probed)."""
    pairs = scenario.hunter.controller.ping_list_of(
        scenario.task.id
    ).pairs
    pair = min(p for p in pairs if p.involves(endpoint))
    links = scenario.fabric.traceroute(pair.src, pair.dst).links
    return links[0] if pair.src == endpoint else links[-1]


# ----------------------------------------------------------------------
# sharded-2048-mp2
# ----------------------------------------------------------------------


class Sharded:
    """The round loop over two worker processes, merged and voted."""

    name = "sharded-2048-mp2"
    NUM_SHARDS = 2
    CHUNK_ROUNDS = 4
    TOTAL_ROUNDS = 8
    #: RNIC_PORT_DOWN over rounds [3, 7): detected on the fast path in
    #: the second chunk, cleared before the run ends.
    FAULT_ROUNDS = (3, 7)

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.containers = 16 if smoke else 256

    def spec(self) -> ShardScenarioSpec:
        base = ShardScenarioSpec(
            num_containers=self.containers, gpus_per_container=8, pp=2,
            seed=self.seed, probe_interval_s=PROBE_INTERVAL_S,
            total_rounds=self.TOTAL_ROUNDS, pair_mode="ring_chord",
        )
        # The target is an identifier the spec pickles; resolving it
        # needs placement, i.e. one throwaway replica.
        replica = build_replica(base)
        rng = random.Random(self.seed)
        endpoint = EndpointId(
            ContainerId(replica.task.id, rng.randrange(self.containers)),
            rng.randrange(8),
        )
        start, end = self.FAULT_ROUNDS
        fault = FaultSpec(
            issue="RNIC_PORT_DOWN",
            target=replica.cluster.overlay.rnic_of(endpoint),
            start_round=start, end_round=end,
        )
        return replace(base, faults=(fault,))

    def setup(self) -> ShardCoordinator:
        return ShardCoordinator(
            self.spec(), num_shards=self.NUM_SHARDS,
            backend=MultiprocessingBackend(),
            chunk_rounds=self.CHUNK_ROUNDS,
        )

    def discard(self, coordinator: ShardCoordinator) -> None:
        # kill() terminates and joins at once; stop() would first wait
        # for each worker to finish building its replica.
        for handle in coordinator.handles.values():
            handle.kill()

    def measure(self, coordinator, seconds: float, tracer) -> Outcome:
        gc.collect()
        cpu0 = cpu_seconds()
        began = time.perf_counter()
        result = coordinator.run()      # reaps its workers on return
        phase = (began, time.perf_counter())
        cpu = cpu_seconds() - cpu0
        counters = result.metrics.counters()
        events = [record.to_failure_event() for record in result.events]
        outcome = Outcome(
            rounds=self.TOTAL_ROUNDS,
            probes_sent=int(counters.get("probes.sent", 0)),
            probes_lost=int(counters.get("probes.lost", 0)),
            phase=phase,
            cpu_s=cpu,
            events=_event_rows(events),
            verdicts=_verdict_rows(result.verdicts),
        )
        outcome.digest_extra = [outcome.probes_sent, outcome.probes_lost]
        reference = coordinator.reference
        scorer = CampaignScorer(reference.cluster, reference.fabric)
        _apply_score(outcome, *scorer.score(
            reference.injector.all_faults(), events, result.verdicts,
            coordinator.all_pairs,
        ))
        if not events or not result.verdicts:
            outcome.problems.append(
                f"anti-vacuous floor: {len(events)} events, "
                f"{len(result.verdicts)} verdicts, need >= 1 of each"
            )
        counts = result.plan.pair_counts()
        outcome.counters = {
            "fabric.probes_lost": outcome.probes_lost,
            "analyzer.events_opened": len(events),
            "shard.pair_imbalance": (
                max(counts) * len(counts) / max(sum(counts), 1)
            ),
        }
        return outcome


# ----------------------------------------------------------------------
# fleet-16x64
# ----------------------------------------------------------------------


class Fleet:
    """Many small tenants sharing one fabric and one probe budget."""

    name = "fleet-16x64"
    NUM_WORKERS = 2
    CHUNK_ROUNDS = 4
    BUDGET_FRACTION = 0.6

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.jobs = 4 if smoke else 16
        self.containers = 4 if smoke else 16
        # (num_segments, hosts_per_segment, rails_per_host)
        self.fabric = (16, 8, 4) if smoke else (512, 8, 4)
        self.total_rounds = 40 if smoke else 96

    def spec(self) -> FleetSpec:
        tenants = tuple(
            TenantSpec(
                name=f"job-{index:02d}",
                num_containers=self.containers,
                gpus_per_container=4,
                arrival_round=1 + (index % 4),
                churn_rate=0.2 if index % 3 == 0 else 0.0,
                coverage_floor=0.5 if index % 4 == 3 else 0.25,
                weight=2.0 if index % 2 else 1.0,
            )
            for index in range(self.jobs)
        )
        segments, hosts_per_segment, rails = self.fabric
        shape = dict(
            seed=self.seed, total_rounds=self.total_rounds,
            probe_interval_s=PROBE_INTERVAL_S, num_segments=segments,
            hosts_per_segment=hosts_per_segment, rails_per_host=rails,
            chunk_rounds=self.CHUNK_ROUNDS, tenants=tenants,
        )
        demands = demand_table(
            FleetSpec(probe_budget_per_round=10 ** 9, **shape)
        ).values()
        budget = max(
            sum(d.floor for d in demands),
            int(sum(d.demand for d in demands) * self.BUDGET_FRACTION),
        )
        # The crash hits a tenant that never churns, so the lifecycle
        # cannot reschedule the victim away from under the fault.
        rng = random.Random(self.seed)
        victim = rng.choice(
            [i for i, t in enumerate(tenants) if t.churn_rate == 0.0]
        )
        crash_round = self.total_rounds // 4
        loss_round = self.total_rounds // 2
        return FleetSpec(
            probe_budget_per_round=budget,
            faults=(FaultSpec(
                issue="CONTAINER_CRASH",
                target=ContainerId(
                    TaskId(victim), rng.randrange(self.containers)
                ),
                start_round=crash_round,
            ),),
            monitor_faults=(MonitorFaultSpec(
                issue="PROBE_REPORT_LOSS",
                start_round=loss_round, end_round=loss_round + 8,
                rate=0.2,
            ),),
            **shape,
        )

    def setup(self) -> FleetCoordinator:
        return FleetCoordinator(self.spec(), num_workers=self.NUM_WORKERS)

    def discard(self, coordinator) -> None:
        pass

    def measure(self, coordinator, seconds: float, tracer) -> Outcome:
        spec = coordinator.spec
        gc.collect()
        cpu0 = cpu_seconds()
        began = time.perf_counter()
        result = coordinator.run()
        phase = (began, time.perf_counter())
        outcome = Outcome(
            rounds=spec.total_rounds,
            probes_sent=result.probes_sent,
            probes_lost=result.probes_lost,
            phase=phase,
            cpu_s=cpu_seconds() - cpu0,
            events=[list(row) for row in result.event_summary],
            verdicts=[
                [tenant, at, [list(d) for d in diagnoses], unexplained]
                for tenant, at, diagnoses, unexplained
                in result.verdict_summary
            ],
            digest_extra=[result.probes_sent, result.probes_lost],
        )
        self._score_faults(outcome, coordinator, result)
        violations = self._score_budget(outcome, spec, result)
        if not result.event_summary or not result.verdict_summary:
            outcome.problems.append(
                f"anti-vacuous floor: {len(result.event_summary)} "
                f"events, {len(result.verdict_summary)} verdicts, "
                f"need >= 1 of each"
            )
        outcome.counters = _cache_counters(
            worker.replica.fabric
            for worker in coordinator.workers.values()
        )
        outcome.counters.update({
            "fabric.probes_lost": result.probes_lost,
            "analyzer.events_opened": len(result.event_summary),
            "fleet.critical_path_modeled_s": (
                result.critical_path_seconds
            ),
            "fleet.coverage_min": min(
                row[1] for row in result.coverage_summary
            ),
            "fleet.coverage_floor_violations": violations[0],
            "fleet.budget_violations": violations[1],
        })
        return outcome

    @staticmethod
    def _score_faults(outcome: Outcome, coordinator, result) -> None:
        """Score the merged run with :class:`CampaignScorer`, against
        worker 0's replica (every worker replays the same world)."""
        spec = coordinator.spec
        replica = coordinator.workers[0].replica
        events = [
            record.to_failure_event()
            for chunk in coordinator.chunk_results
            for _, record in chunk.events
        ]
        reports = [
            (at, LocalizationReport(diagnoses=[
                Diagnosis(
                    component=component,
                    component_class=ComponentClass(component_class),
                    layer=layer, evidence="", pairs=(),
                    confidence=confidence,
                )
                for component, component_class, layer, confidence
                in diagnoses
            ]))
            for _, at, diagnoses, _ in result.verdict_summary
        ]
        pairs = [
            pair
            for tenant in spec.tenants
            for pair in tenant_pairs(tenant, spec.task_id_of(tenant.name))
        ]
        scorer = CampaignScorer(replica.cluster, replica.fabric)
        _apply_score(outcome, *scorer.score(
            replica.injector.all_faults(), events, reports, pairs
        ))

    @staticmethod
    def _score_budget(
        outcome: Outcome, spec: FleetSpec, result
    ) -> Tuple[int, int]:
        """One op per admitted tenant-round: failed if the grant is
        under the tenant's floor or the round's grants exceed the
        budget.  Returns (floor violations, budget violations)."""
        floor_violations = budget_violations = 0
        for rollup in result.rollups:
            over = rollup.granted > rollup.budget
            budget_violations += over
            for _, _, floor, quota, *_ in rollup.tenant_rows:
                under = quota < floor
                floor_violations += under
                outcome.ops_attempted += 1
                outcome.ops_failed += bool(under or over)
        return floor_violations, budget_violations


WORKLOADS = {
    cls.name: cls for cls in (Steady, FaultStorm, Sharded, Fleet)
}
