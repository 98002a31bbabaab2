"""Tests for the JSONL and Prometheus exporters: the text they write."""

import json

from repro.obs.export import metric_name, to_jsonl, to_prometheus, write_jsonl
from repro.obs.trace import TraceRecorder
from repro.sim.metrics import MetricRegistry


def load_jsonl(text):
    return [json.loads(line) for line in text.splitlines()]


def _populated_recorder() -> TraceRecorder:
    recorder = TraceRecorder()
    recorder.event("controller.preload", sim_time=0.0, pairs=24)
    with recorder.span("probe_round", sim_time=2.0) as span:
        recorder.event("detect.lof", sim_time=2.0, pair="a<->b",
                       score=1.5, anomalous=False)
        span.set(probes_sent=8)
    recorder.count("probes.sent", 8)
    recorder.count("probes.lost", 1)
    recorder.sample("probes.sent_in_round", 2.0, 8.0)
    return recorder


class TestJsonl:
    def test_round_trip_preserves_rows(self):
        recorder = _populated_recorder()
        rows = load_jsonl(to_jsonl(recorder))
        assert len(rows) == len(recorder.events()) + len(recorder.spans())
        kinds = [r["kind"] for r in rows if r["type"] == "event"]
        assert kinds == ["controller.preload", "detect.lof"]
        spans = [r for r in rows if r["type"] == "span"]
        assert spans[0]["name"] == "probe_round"
        assert spans[0]["attrs"] == {"probes_sent": 8}

    def test_rows_are_ordered_by_recording_sequence(self):
        recorder = _populated_recorder()
        rows = load_jsonl(to_jsonl(recorder))
        seqs = [r.get("seq", r.get("span_id")) for r in rows]
        assert seqs == sorted(seqs)
        # The span opened before the detect.lof event it encloses.
        types = [r["type"] for r in rows]
        assert types == ["event", "span", "event"]

    def test_event_inside_span_links_to_it(self):
        recorder = _populated_recorder()
        rows = load_jsonl(to_jsonl(recorder))
        span = next(r for r in rows if r["type"] == "span")
        lof = next(
            r for r in rows
            if r["type"] == "event" and r["kind"] == "detect.lof"
        )
        assert lof["span_id"] == span["span_id"]

    def test_write_jsonl_counts_and_round_trips(self, tmp_path):
        recorder = _populated_recorder()
        path = tmp_path / "trace.jsonl"
        count = write_jsonl(recorder, str(path))
        rows = load_jsonl(path.read_text())
        assert count == len(rows) == 3

    def test_empty_recorder_exports_empty_trace(self):
        assert to_jsonl(TraceRecorder()) == ""


class TestMetricNames:
    def test_counter_name_gets_total_suffix(self):
        assert metric_name("probes.sent", counter=True) == \
            "skeletonhunter_probes_sent_total"

    def test_gauge_name_has_no_suffix(self):
        assert metric_name("probes.sent_in_round") == \
            "skeletonhunter_probes_sent_in_round"

    def test_invalid_characters_are_stripped(self):
        assert metric_name("rtt (us)") == "skeletonhunter_rtt__us_"


class TestPrometheus:
    def test_counters_round_trip(self):
        recorder = _populated_recorder()
        assert to_prometheus(recorder).splitlines()[:4] == [
            "# TYPE skeletonhunter_probes_lost_total counter",
            "skeletonhunter_probes_lost_total 1",
            "# TYPE skeletonhunter_probes_sent_total counter",
            "skeletonhunter_probes_sent_total 8",
        ]

    def test_series_exports_last_value_and_sample_count(self):
        recorder = _populated_recorder()
        recorder.sample("probes.sent_in_round", 4.0, 6.0)
        assert to_prometheus(recorder).splitlines()[4:] == [
            "# TYPE skeletonhunter_probes_sent_in_round gauge",
            "skeletonhunter_probes_sent_in_round 6",
            "# TYPE skeletonhunter_probes_sent_in_round_samples counter",
            "skeletonhunter_probes_sent_in_round_samples 2",
        ]

    def test_accepts_bare_registry(self):
        registry = MetricRegistry()
        registry.increment("probes.sent", 5)
        assert to_prometheus(registry) == (
            "# TYPE skeletonhunter_probes_sent_total counter\n"
            "skeletonhunter_probes_sent_total 5\n"
        )

    def test_float_values_survive(self):
        registry = MetricRegistry()
        registry.increment("ratio", 0.25)
        assert to_prometheus(registry).splitlines()[1] == \
            "skeletonhunter_ratio_total 0.25"

    def test_empty_registry_exports_empty_text(self):
        assert to_prometheus(MetricRegistry()) == ""

    def test_no_labels_output_is_unchanged(self):
        # Samples carry no label block: a name, a space, a number.
        text = to_prometheus(_populated_recorder())
        assert "{" not in text
        assert text.endswith("skeletonhunter_probes_sent_in_round_samples 1\n")
