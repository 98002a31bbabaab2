"""Replay determinism: a recorded standard chaos run reconstructs
detection + localization bit-exactly, and damaged recordings fail
loudly instead of replaying partially."""

import json

import pytest

from repro.bus.core import TelemetryBus, Topic
from repro.bus.recorder import RecordingError, load_recording
from repro.bus.replay import (
    Replayer,
    record_standard_run,
    standard_run_config,
    verify_replay_equivalence,
)
from repro.equivalence import EquivalenceError
from repro.network.issues import Symptom
from repro.shard import default_equivalence_spec, run_plane


@pytest.fixture(scope="module")
def recording_path(tmp_path_factory):
    """One full-length standard chaos run (the PR-5 schedule: telemetry
    drop + report loss from t=0, an agent crash at 210-270s) with an
    RNIC port failure injected after warm-up."""
    path = tmp_path_factory.mktemp("bus") / "standard.jsonl"
    summary = record_standard_run(str(path), seed=0)
    return str(path), summary


class TestRecordedRun:
    def test_run_recorded_verdicts_and_breakers(self, recording_path):
        _, summary = recording_path
        assert summary["verdicts"] >= 1
        assert summary["events"] >= 1
        # The scheduled agent crash plus report loss guarantees breaker
        # activity inside the recorded window.
        assert summary["breaker_transitions"] > 0

    def test_summary_counts_the_file_not_the_bus_ring(
        self, tmp_path, monkeypatch
    ):
        """``record_standard_run`` used to report ``len(bus.history(
        topic))`` — capped at the ring size (512 by default, so a long
        lossy run read "512 breaker transitions" for 1,747 written).
        With a 4-record ring the summary must still equal the file."""
        from repro.bus import replay

        monkeypatch.setattr(
            replay, "TelemetryBus", lambda: TelemetryBus(history=4)
        )
        path = str(tmp_path / "tiny-ring.jsonl")
        summary = record_standard_run(path, seed=0)
        recording = load_recording(path)
        for key, topic in (
            ("verdicts", Topic.VERDICTS),
            ("events", Topic.EVENTS),
            ("breaker_transitions", Topic.BREAKERS),
        ):
            assert summary[key] == len(recording.by_topic(topic)), key
        assert summary["breaker_transitions"] > 4

    def test_recording_is_loadable_and_complete(self, recording_path):
        path, summary = recording_path
        recording = load_recording(path)
        assert recording.seed == 0
        assert recording.fingerprint == summary["fingerprint"]
        assert len(recording.records) == summary["records"]
        for topic in (Topic.PROBE_REPORTS, Topic.ROUND, Topic.PINGLIST,
                      Topic.GROUND_TRUTH, Topic.EVENTS, Topic.VERDICTS,
                      Topic.BREAKERS):
            assert recording.by_topic(topic), f"no {topic} records"

    def test_same_seed_recordings_are_byte_identical(
        self, recording_path, tmp_path
    ):
        path, _ = recording_path
        again = tmp_path / "again.jsonl"
        record_standard_run(str(again), seed=0)
        with open(path, "rb") as handle:
            first = handle.read()
        # Byte identity covers every plane at once: probe rows, fault
        # ground truth, and all breaker state transitions.
        assert again.read_bytes() == first


class TestReplayEquivalence:
    def test_replay_is_bit_exact(self, recording_path):
        path, _ = recording_path
        result = verify_replay_equivalence(path)
        assert result.recorded_verdicts == result.replayed_verdicts
        assert result.recorded_events == result.replayed_events
        assert result.recorded_verdicts  # the gate is not vacuous
        assert result.equivalent

    def test_replay_reapplies_the_network_fault(self, recording_path):
        path, _ = recording_path
        result = Replayer(path).replay()
        assert result.faults_applied == 1
        assert result.rounds > 100
        assert result.probes_ingested > 1000
        assert result.breaker_transitions  # passthrough stream

    def test_verdicts_carry_diagnoses(self, recording_path):
        path, _ = recording_path
        result = Replayer(path).replay()
        diagnoses = result.replayed_verdicts[0]["diagnoses"]
        assert diagnoses, "first verdict localized nothing"
        component, component_class, layer, confidence = diagnoses[0]
        assert isinstance(component, str)
        assert layer in ("overlay", "underlay", "rnic", "host")
        assert 0.0 < confidence <= 1.0


class TestOneEventEncoding:
    def test_hunter_and_sharded_planes_publish_symptom_values(
        self, recording_path
    ):
        """``detect.events`` has one wire form (``bus.codec``): the
        sharded coordinator used to publish the enum *name*
        (``"UNCONNECTIVITY"``) where the hunter publishes its value."""
        path, _ = recording_path
        hunter = [
            record["data"]["symptom"]
            for record in load_recording(path).by_topic(Topic.EVENTS)
        ]
        bus = TelemetryBus()
        run_plane(
            default_equivalence_spec(
                num_containers=8, gpus_per_container=2,
                total_rounds=12, num_faults=1,
            ),
            2, bus=bus,
        )
        sharded = [
            record["data"]["symptom"]
            for record in bus.history(Topic.EVENTS)
        ]
        assert hunter and sharded
        for value in hunter + sharded:
            assert Symptom(value).value == value


class TestDamagedRecordings:
    def _tamper(self, path, out, mutate):
        lines = path_lines = None
        with open(path, "r", encoding="utf-8") as handle:
            path_lines = handle.read().splitlines()
        lines = [mutate(line) for line in path_lines]
        with open(out, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        return str(out)

    def test_tampered_verdict_fails_the_gate(
        self, recording_path, tmp_path
    ):
        path, _ = recording_path

        def corrupt(line):
            if '"topic":"localize.verdicts"' in line:
                return line.replace(
                    '"unexplained":0', '"unexplained":9'
                )
            return line

        bad = self._tamper(path, tmp_path / "tampered.jsonl", corrupt)
        with pytest.raises(EquivalenceError, match="verdicts diverged"):
            verify_replay_equivalence(bad)

    def test_truncated_recording_is_refused(
        self, recording_path, tmp_path
    ):
        path, _ = recording_path
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        cut = tmp_path / "cut.jsonl"
        cut.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        with pytest.raises(RecordingError, match="truncated"):
            verify_replay_equivalence(str(cut))

    def test_edited_config_breaks_the_fingerprint(
        self, recording_path, tmp_path
    ):
        path, _ = recording_path

        def reseed(line):
            row = json.loads(line)
            if row.get("type") == "header":
                row["config"]["seed"] = 999
                return json.dumps(
                    row, sort_keys=True, separators=(",", ":")
                )
            return line

        bad = self._tamper(path, tmp_path / "reseeded.jsonl", reseed)
        with pytest.raises(RecordingError, match="fingerprint"):
            Replayer(bad)


class TestStandardRunConfig:
    def test_defaults_match_the_chaos_gate_recipe(self):
        config = standard_run_config(seed=3)
        assert config["num_containers"] == 4
        assert config["gpus_per_container"] == 4
        assert config["hosts_per_segment"] == 4
        assert config["telemetry_loss"] == 0.10
        assert config["chaos"] == "standard"
        assert (config["warm_s"], config["fault_s"], config["cool_s"]) \
            == (200.0, 120.0, 40.0)

    def test_unknown_topics_are_skipped_on_replay(
        self, recording_path, tmp_path
    ):
        """The minor-revision contract: a future topic in the stream
        must not break (or change) today's replay."""
        path, _ = recording_path
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        extra = {
            "type": "record", "seq": 0, "topic": "future.topic",
            "sim_time": 0.0, "data": {"x": 1},
        }
        footer = json.loads(lines[-1])
        footer["records"] += 1
        lines = (
            [lines[0], json.dumps(extra, sort_keys=True,
                                  separators=(",", ":"))]
            + lines[1:-1]
            + [json.dumps(footer, sort_keys=True,
                          separators=(",", ":"))]
        )
        future = tmp_path / "future.jsonl"
        future.write_text("\n".join(lines) + "\n")
        result = verify_replay_equivalence(str(future))
        assert result.equivalent
