"""Tests for the JSONL recorder and the recording loader's
validation (truncation, corruption, schema gating)."""

import json

import pytest

from repro.bus.core import TelemetryBus, Topic
from repro.bus.recorder import (
    SCHEMA_VERSION,
    JsonlRecorder,
    RecordingError,
    config_fingerprint,
    load_recording,
)


def record_run(path, config=None, seed=7, publishes=3):
    bus = TelemetryBus()
    with JsonlRecorder(bus, str(path), config=config, seed=seed):
        for n in range(publishes):
            bus.publish(Topic.ROUND, sim_time=2.0 * n, sent=n)
    return bus


class TestRecorder:
    def test_file_has_header_records_footer(self, tmp_path):
        path = tmp_path / "run.jsonl"
        record_run(path, config={"seed": 7}, publishes=2)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [row["type"] for row in lines] == [
            "header", "record", "record", "footer",
        ]
        assert lines[0]["schema"] == SCHEMA_VERSION
        assert lines[0]["seed"] == 7
        assert lines[0]["fingerprint"] == config_fingerprint(
            {"seed": 7}
        )
        assert lines[-1]["records"] == 2

    def test_close_is_idempotent_and_detaches(self, tmp_path):
        path = tmp_path / "run.jsonl"
        bus = TelemetryBus()
        recorder = JsonlRecorder(bus, str(path))
        bus.publish(Topic.ROUND)
        recorder.close()
        recorder.close()
        bus.publish(Topic.ROUND)  # after detach: not recorded
        assert load_recording(str(path)).records[-1]["seq"] == 1

    def test_topic_counts_outlive_the_bus_ring(self, tmp_path):
        """The bus retains ``history`` records per topic; the recorder
        sees every one, so its per-topic counts are the run's."""
        bus = TelemetryBus(history=4)
        with JsonlRecorder(bus, str(tmp_path / "run.jsonl")) as recorder:
            for n in range(10):
                bus.publish(Topic.VERDICTS, sim_time=float(n))
            bus.publish(Topic.EVENTS)
        assert len(bus.history(Topic.VERDICTS)) == 4
        assert recorder.topic_counts == {
            Topic.VERDICTS: 10, Topic.EVENTS: 1,
        }
        assert recorder.records_written == 11

    def test_loaded_recording_round_trips(self, tmp_path):
        path = tmp_path / "run.jsonl"
        record_run(path, config={"k": [1, 2]}, publishes=3)
        recording = load_recording(str(path))
        assert recording.schema == SCHEMA_VERSION
        assert recording.seed == 7
        assert recording.config == {"k": [1, 2]}
        rounds = recording.by_topic(Topic.ROUND)
        assert [r["data"]["sent"] for r in rounds] == [0, 1, 2]
        assert [r["seq"] for r in recording.records] == [1, 2, 3]

    def test_identical_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        record_run(a, config={"seed": 1})
        record_run(b, config={"seed": 1})
        assert a.read_bytes() == b.read_bytes()


class TestFingerprint:
    def test_key_order_does_not_matter(self):
        assert config_fingerprint({"a": 1, "b": 2}) == (
            config_fingerprint({"b": 2, "a": 1})
        )

    def test_value_changes_do(self):
        assert config_fingerprint({"a": 1}) != config_fingerprint(
            {"a": 2}
        )

    def test_none_is_the_empty_config(self):
        assert config_fingerprint(None) == config_fingerprint({})


class TestLoaderValidation:
    def write(self, tmp_path, text):
        path = tmp_path / "bad.jsonl"
        path.write_text(text)
        return str(path)

    def header(self, schema=SCHEMA_VERSION):
        return json.dumps(
            {"type": "header", "schema": schema, "seed": 0,
             "config": {}, "fingerprint": config_fingerprint({})}
        )

    def test_empty_file(self, tmp_path):
        with pytest.raises(RecordingError, match="empty recording"):
            load_recording(self.write(tmp_path, ""))

    def test_first_line_must_be_header(self, tmp_path):
        path = self.write(tmp_path, '{"type": "record", "seq": 1}\n')
        with pytest.raises(RecordingError, match="not a header"):
            load_recording(path)

    def test_corrupted_line_cites_its_number(self, tmp_path):
        path = self.write(
            tmp_path, self.header() + "\n{not json}\n"
        )
        with pytest.raises(RecordingError, match="line 2"):
            load_recording(path)

    def test_schema_major_mismatch_is_refused(self, tmp_path):
        path = self.write(tmp_path, self.header(schema="2.0") + "\n")
        with pytest.raises(RecordingError, match="major mismatch"):
            load_recording(path)

    def test_schema_minor_revision_is_accepted(self, tmp_path):
        footer = json.dumps({"type": "footer", "records": 0})
        path = self.write(
            tmp_path, self.header(schema="1.9") + "\n" + footer + "\n"
        )
        assert load_recording(path).schema == "1.9"

    def test_missing_footer_is_truncation(self, tmp_path):
        row = json.dumps(
            {"type": "record", "seq": 1, "topic": "t", "sim_time": 0.0,
             "data": {}}
        )
        path = self.write(tmp_path, self.header() + "\n" + row + "\n")
        with pytest.raises(RecordingError, match="truncated"):
            load_recording(path)

    def test_footer_count_mismatch_is_truncation(self, tmp_path):
        footer = json.dumps({"type": "footer", "records": 5})
        path = self.write(
            tmp_path, self.header() + "\n" + footer + "\n"
        )
        with pytest.raises(RecordingError, match="truncated"):
            load_recording(path)

    def test_footer_must_be_last(self, tmp_path):
        footer = json.dumps({"type": "footer", "records": 1})
        row = json.dumps(
            {"type": "record", "seq": 1, "topic": "t", "sim_time": 0.0,
             "data": {}}
        )
        path = self.write(
            tmp_path,
            self.header() + "\n" + footer + "\n" + row + "\n",
        )
        with pytest.raises(RecordingError, match="not last"):
            load_recording(path)

    def test_unknown_row_type_is_refused(self, tmp_path):
        path = self.write(
            tmp_path,
            self.header() + "\n" + json.dumps({"type": "weird"}) + "\n",
        )
        with pytest.raises(RecordingError, match="unknown row type"):
            load_recording(path)

    def test_record_needs_topic_and_seq(self, tmp_path):
        row = json.dumps({"type": "record", "seq": 1})
        path = self.write(tmp_path, self.header() + "\n" + row + "\n")
        with pytest.raises(RecordingError, match="missing topic/seq"):
            load_recording(path)
