"""Record a standard chaos run; replay it bit-exactly from JSONL.

:func:`record_standard_run` drives the chaos gate's standard campaign
leg (warm-up, skeleton, one Table-1 fault under the PR-5 monitor-fault
schedule) with a :class:`~repro.bus.recorder.JsonlRecorder` attached.

:class:`Replayer` then reconstructs detection + localization from the
recording alone — the fabric is never re-simulated.  Recorded probe
reports feed a fresh analyzer; recorded ground truth re-applies the
fault schedule to an identically built replica whose overlay/flow
tables the localizer reads; recorded ping-list snapshots supply the
healthy-pair sets.  Every ``round.summary`` record triggers the same
flush + localize the live hunter ran, so the replayed verdict stream
is comparable element by element with the recorded one.

:func:`verify_replay_equivalence` is the hard gate, one of the four
gates built on :func:`repro.equivalence.compare`: any verdict or event
drift raises :class:`~repro.equivalence.EquivalenceError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple, Union

from repro.bus.codec import (
    decode_probe_rows,
    encode_event,
    encode_verdict,
    fault_overrides,
    parse_endpoint,
    resolve_target,
)
from repro.bus.core import TelemetryBus, Topic
from repro.bus.recorder import (
    JsonlRecorder,
    Recording,
    RecordingError,
    config_fingerprint,
    load_recording,
)
from repro.equivalence import compare, divergences

__all__ = [
    "ReplayResult",
    "Replayer",
    "drive_standard_run",
    "record_standard_run",
    "standard_run_config",
    "verify_replay_equivalence",
]


def standard_run_config(
    seed: int = 0,
    issue: str = "RNIC_PORT_DOWN",
    telemetry_loss: float = 0.10,
    num_containers: int = 4,
    gpus_per_container: int = 4,
    pp: int = 2,
    hosts_per_segment: int = 4,
    probe_interval_s: float = 2.0,
    warm_s: float = 200.0,
    fault_s: float = 120.0,
    cool_s: float = 40.0,
) -> Dict[str, Any]:
    """The recorded run's full configuration (header ``config``).

    Everything a replayer needs to rebuild the replica is in here;
    the header fingerprint is the SHA-256 of this dict's canonical
    JSON.
    """
    return {
        "kind": "standard_chaos_run",
        "seed": int(seed),
        "issue": str(issue),
        "chaos": "standard",
        "telemetry_loss": float(telemetry_loss),
        "num_containers": int(num_containers),
        "gpus_per_container": int(gpus_per_container),
        "pp": int(pp),
        "hosts_per_segment": int(hosts_per_segment),
        "probe_interval_s": float(probe_interval_s),
        "warm_s": float(warm_s),
        "fault_s": float(fault_s),
        "cool_s": float(cool_s),
    }


def _build_replica(config: Dict[str, Any], bus=None, chaos=None,
                   watch: bool = True):
    """Build the scenario a recording's config describes.

    ``watch=True`` is the live (recording) side; the replayer passes
    ``watch=False`` because it never runs the probing loop — it only
    needs the replica's cluster, overlay tables, and fabric routes.
    """
    # Imported lazily: repro.bus must stay importable from the core
    # modules that publish onto it.
    from repro.workloads.scenarios import build_scenario

    return build_scenario(
        num_containers=int(config["num_containers"]),
        gpus_per_container=int(config["gpus_per_container"]),
        pp=int(config["pp"]),
        seed=int(config["seed"]),
        probe_interval_s=float(config["probe_interval_s"]),
        hosts_per_segment=int(config["hosts_per_segment"]),
        chaos=chaos,
        bus=bus,
        watch=watch,
        start_monitoring=watch,
    )


def _build_chaos(config: Dict[str, Any]):
    """The monitor-fault schedule the config names (or ``None``)."""
    if config.get("chaos") != "standard":
        return None
    from repro.chaos.gate import standard_chaos

    return standard_chaos(
        int(config["seed"]), float(config["telemetry_loss"])
    )


def drive_standard_run(bus: TelemetryBus, config: Dict[str, Any]):
    """Run the standard chaos campaign leg live, publishing onto
    ``bus``: warm up, apply the skeleton, then the configured issue's
    :meth:`~repro.workloads.scenarios.MonitoredScenario.run_fault`.
    Returns the scenario (fully run)."""
    from repro.network.issues import lookup_issue

    scenario = _build_replica(
        config, bus=bus, chaos=_build_chaos(config), watch=True
    )
    scenario.run_for(config["warm_s"])
    scenario.apply_skeleton()
    scenario.run_fault(
        lookup_issue(config["issue"]),
        fault_s=config["fault_s"], cool_s=config["cool_s"],
    )
    return scenario


def record_standard_run(
    path: str, **config_overrides: Any
) -> Dict[str, Any]:
    """Record the standard chaos campaign leg to ``path``.

    Keyword arguments override :func:`standard_run_config` fields.
    Returns a summary dict (path, record/verdict/event counts, and the
    config fingerprint).
    """
    config = standard_run_config(**config_overrides)
    bus = TelemetryBus()
    with JsonlRecorder(
        bus, path, config=config, seed=config["seed"]
    ) as recorder:
        drive_standard_run(bus, config)
    written = recorder.topic_counts
    return {
        "path": recorder.path,
        "records": recorder.records_written,
        "verdicts": written[Topic.VERDICTS],
        "events": written[Topic.EVENTS],
        "breaker_transitions": written[Topic.BREAKERS],
        "fingerprint": config_fingerprint(config),
    }


def _norm(value: Any) -> Any:
    """JSON-normalize so recorded and replayed values compare exactly."""
    return json.loads(json.dumps(value, sort_keys=True))


@dataclass
class ReplayResult:
    """Recorded-vs-replayed streams, comparison-ready."""

    recorded_verdicts: List[Any] = field(default_factory=list)
    replayed_verdicts: List[Any] = field(default_factory=list)
    recorded_events: List[Any] = field(default_factory=list)
    replayed_events: List[Any] = field(default_factory=list)
    breaker_transitions: List[Dict[str, Any]] = field(
        default_factory=list
    )
    rounds: int = 0
    probes_ingested: int = 0
    faults_applied: int = 0

    def streams(self) -> Tuple[Dict[str, list], Dict[str, list]]:
        """``(recorded, replayed)`` as named row streams."""
        return (
            {"verdicts": self.recorded_verdicts,
             "events": self.recorded_events},
            {"verdicts": self.replayed_verdicts,
             "events": self.replayed_events},
        )

    def divergences(self) -> List[str]:
        """Human-readable drift, empty when the replay is bit-exact."""
        return divergences(*self.streams())

    @property
    def equivalent(self) -> bool:
        return not self.divergences()


class Replayer:
    """Reconstruct detection + localization from a recording.

    The replica is rebuilt from the header config (refusing a header
    whose fingerprint does not match), its flow rules are warmed with
    every pair the recording probed, and the records are then applied
    in sequence order — so faults, snapshots, and probe batches land
    exactly as they did live; a run of consecutive probe-report records
    (one per agent of a round) is ingested as one batch.
    """

    def __init__(self, recording: Union[Recording, str]):
        if isinstance(recording, str):
            recording = load_recording(recording)
        self.recording = recording
        expected = config_fingerprint(recording.config)
        if recording.fingerprint != expected:
            raise RecordingError(
                "header fingerprint does not match its config "
                f"(recorded {recording.fingerprint!r}, "
                f"computed {expected!r})"
            )

    def replay(self) -> ReplayResult:
        """Apply every record; returns the comparison-ready result."""
        from repro.core.pinglist import ProbePair
        from repro.network.issues import lookup_issue

        config = self.recording.config
        scenario = _build_replica(
            config, chaos=_build_chaos(config), watch=False
        )
        analyzer = scenario.hunter.analyzer
        self._warm_fabric(scenario, ProbePair)

        result = ReplayResult()
        active_pairs: List[Any] = []
        fault_map: Dict[int, Any] = {}
        # The rows of consecutive report records (a live round's
        # agents), ingested as one batch before any other record
        # applies: exact by the analyzer's batch == sequential
        # contract, which takes a batch whose pair repeats row by row.
        reports: List[List[Any]] = []

        def ingest() -> None:
            if reports:
                analyzer.ingest_batch(decode_probe_rows(reports))
                result.probes_ingested += len(reports)
                reports.clear()

        for record in self.recording.records:
            topic = record["topic"]
            data = record["data"]
            at = record["sim_time"]
            if topic == Topic.PROBE_REPORTS:
                reports.extend(data["results"])
                continue
            ingest()
            if topic == Topic.PINGLIST:
                active_pairs = [
                    ProbePair(parse_endpoint(src), parse_endpoint(dst))
                    for src, dst in data["pairs"]
                ]
            elif topic == Topic.GROUND_TRUTH:
                if data.get("plane") != "network":
                    continue  # monitor-plane weather is keyed, not
                    # stateful: the rebuilt schedule already covers it.
                spec = data["fault"]
                if data["action"] == "inject":
                    target = resolve_target(
                        spec["target"],
                        containers=scenario.task.containers,
                    )
                    fault = scenario.injector.inject_issue(
                        lookup_issue(spec["issue"]),
                        target,
                        start=spec["start"],
                        **fault_overrides(spec),
                    )
                    fault_map[spec["fault_id"]] = fault
                    result.faults_applied += 1
                else:
                    fault = fault_map.get(spec["fault_id"])
                    if fault is not None:
                        scenario.injector.clear(fault, at)
            elif topic == Topic.ROUND:
                result.rounds += 1
                analyzer.flush(at)
                fresh, report = scenario.hunter.localizer.localize_open(
                    analyzer.open_events(), lambda fresh: active_pairs, at,
                )
                if report is None:
                    continue
                result.replayed_verdicts.append(
                    _norm(encode_verdict(at, report))
                )
                for event in fresh:
                    result.replayed_events.append(_norm(encode_event(
                        event.pair, event.first_detected_at, event.symptom
                    )))
            elif topic == Topic.VERDICTS:
                result.recorded_verdicts.append(_norm({
                    "at": data["at"],
                    "diagnoses": data["diagnoses"],
                    "unexplained": data["unexplained"],
                }))
            elif topic == Topic.EVENTS:
                result.recorded_events.append(_norm({
                    "src": data["src"],
                    "dst": data["dst"],
                    "first_detected_at": data["first_detected_at"],
                    "symptom": data["symptom"],
                }))
            elif topic == Topic.BREAKERS:
                if data.get("kind") == "transition":
                    result.breaker_transitions.append(record)
            # Unknown topics: skipped (schema minor-revision contract).
        ingest()
        return result

    def _warm_fabric(self, scenario, pair_type) -> None:
        """Resolve every recorded flow once, before any fault applies.

        Live runs install flow rules as each pair is first probed —
        all before the first injected fault (every active pair probes
        in round one).  One warm batch at t=0 reproduces the installed
        rule set without re-simulating any probe outcome.
        """
        seen: set = set()
        pairs: List[Any] = []
        for record in self.recording.by_topic(Topic.PROBE_REPORTS):
            for src, dst, _sent_at, _latency in record["data"]["results"]:
                if (src, dst) in seen:
                    continue
                seen.add((src, dst))
                pairs.append(
                    pair_type(parse_endpoint(src), parse_endpoint(dst))
                )
        if pairs:
            scenario.fabric.send_probe_batch(sorted(pairs), 0.0)


def verify_replay_equivalence(
    recording: Union[Recording, str],
) -> ReplayResult:
    """The replay gate: raise on any verdict or event drift, or on a
    recording with no verdicts or events to compare.

    Returns the :class:`ReplayResult` on success so callers can report
    how much was compared.
    """
    result = Replayer(recording).replay()
    compare("replay", *result.streams())
    return result
