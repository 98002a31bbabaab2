"""Tests for the trace recorder and its end-to-end counter accuracy."""

import pytest

from repro.network.issues import IssueType
from repro.obs.span import NULL_SPAN, open_span
from repro.obs.trace import TraceRecorder
from repro.workloads.scenarios import build_scenario


class TestEvents:
    def test_event_records_fields_and_time(self):
        recorder = TraceRecorder()
        record = recorder.event("round.complete", sim_time=4.0, probes=8)
        assert record.kind == "round.complete"
        assert record.sim_time == 4.0
        assert record.fields == {"probes": 8}
        assert recorder.events() == [record]

    def test_kind_filter_is_exact(self):
        recorder = TraceRecorder()
        recorder.event("detect.lof")
        recorder.event("detect.lof.extra")
        assert len(recorder.events("detect.lof")) == 1

    def test_trailing_dot_prefix_matches(self):
        recorder = TraceRecorder()
        recorder.event("detect.lof")
        recorder.event("detect.ztest")
        recorder.event("localize.overlay")
        assert len(recorder.events("detect.")) == 2

    def test_last_event_returns_most_recent(self):
        recorder = TraceRecorder()
        recorder.event("tick", n=1)
        recorder.event("tick", n=2)
        assert recorder.last_event("tick").fields["n"] == 2
        assert recorder.last_event("nope") is None

    def test_unbounded_spans_by_default(self):
        recorder = TraceRecorder()
        for _ in range(100):
            with recorder.span("work"):
                pass
        assert len(recorder.spans()) == 100

    def test_clear_drops_trace_but_keeps_counters(self):
        recorder = TraceRecorder()
        recorder.event("tick")
        with recorder.span("work"):
            pass
        recorder.count("things")
        recorder.clear()
        assert recorder.events() == []
        assert recorder.spans() == []
        assert recorder.metrics.counter("things") == 1.0


class TestMetricsBridge:
    def test_count_goes_to_shared_registry(self):
        # One registry per run: the recorder's is the fabric's.
        scenario = build_scenario(
            num_containers=2, gpus_per_container=2, observe=True,
            start_monitoring=False,
        )
        recorder = scenario.observability
        assert recorder.metrics is scenario.fabric.metrics
        assert scenario.hunter.metrics is scenario.fabric.metrics
        recorder.count("probes.sent", 3)
        assert scenario.fabric.probes_sent == 3

    def test_sample_appends_to_series(self):
        recorder = TraceRecorder()
        recorder.sample("rtt", 1.0, 16.0)
        recorder.sample("rtt", 2.0, 17.0)
        assert recorder.metrics.series("rtt").values() == [16.0, 17.0]


class TestDisabled:
    def test_disabled_recorder_is_a_noop(self):
        # A component is unobserved by holding no recorder at all.
        with open_span(None, "work", sim_time=1.0) as span:
            span.set(probes=8)
            span.close(sim_time=2.0)
        assert span is NULL_SPAN


@pytest.fixture(scope="module")
def observed_run():
    """One full monitored run with observability on and a real fault."""
    scenario = build_scenario(
        num_containers=4, gpus_per_container=4, pp=2, seed=7,
        hosts_per_segment=4, observe=True,
    )
    scenario.run_for(150)
    fault = scenario.inject(
        IssueType.RNIC_PORT_DOWN, scenario.rnic_of_rank(4)
    )
    scenario.run_for(60)
    scenario.clear(fault)
    scenario.run_for(150)
    return scenario


class TestFullRunAccuracy:
    """Counters must agree with the ground truth the components hold."""

    def test_probe_counters_match_fabric(self, observed_run):
        counters = observed_run.observability.metrics.counters()
        assert counters["probes.sent"] == observed_run.fabric.probes_sent
        assert counters["probes.lost"] == observed_run.fabric.probes_lost
        assert counters["probes.sent"] > 0
        assert counters["probes.lost"] > 0

    def test_anomaly_counter_matches_analyzer(self, observed_run):
        counters = observed_run.observability.metrics.counters()
        anomalies = observed_run.hunter.analyzer.anomalies
        assert counters["anomalies.detected"] == len(anomalies)

    def test_event_counters_match_incident_history(self, observed_run):
        counters = observed_run.observability.metrics.counters()
        events = observed_run.hunter.events
        assert counters["events.opened"] == len(events)
        resolved = sum(1 for e in events if e.resolved_at is not None)
        assert counters.get("events.resolved", 0) == resolved

    def test_diagnosis_counter_matches_reports(self, observed_run):
        counters = observed_run.observability.metrics.counters()
        made = sum(
            len(report.diagnoses)
            for _, report in observed_run.hunter.reports
        )
        assert counters["diagnoses.made"] == made
        assert made > 0

    def test_round_spans_sum_to_probe_totals(self, observed_run):
        obs = observed_run.observability
        rounds = obs.spans("probe_round")
        assert rounds
        sent = sum(s.attrs["probes_sent"] for s in rounds)
        assert sent == observed_run.fabric.probes_sent

    def test_flush_and_localize_spans_carry_their_results(
        self, observed_run
    ):
        """The traced and untraced paths are one arm (``open_span``):
        the span wraps the same call and is stamped with its result."""
        obs = observed_run.observability
        analyzer = observed_run.hunter.analyzer
        flushes = obs.spans("analyzer.flush")
        assert flushes
        assert {s.attrs["pairs"] for s in flushes} == {
            len(analyzer.monitored_pairs())
        }
        flushed = sum(s.attrs["anomalies"] for s in flushes)
        assert 0 < flushed <= len(analyzer.anomalies)
        runs = obs.spans("localize.run")
        reports = [report for _, report in observed_run.hunter.reports]
        assert [
            (s.attrs["diagnoses"], s.attrs["unexplained"]) for s in runs
        ] == [(len(r.diagnoses), len(r.unexplained)) for r in reports]
        assert all(s.attrs["events"] > 0 for s in runs)

    def test_per_round_series_sums_to_lifetime(self, observed_run):
        series = observed_run.observability.metrics.series(
            "probes.sent_in_round"
        )
        assert sum(series.values()) == observed_run.fabric.probes_sent

    def test_detector_decisions_were_traced(self, observed_run):
        obs = observed_run.observability
        assert obs.events("detect.anomaly")
        assert obs.events("localize.tomography")
        lof = obs.events("detect.lof")
        assert lof
        assert {"pair", "score", "threshold", "anomalous"} <= set(
            lof[0].fields
        )


class TestObservabilityOffByDefault:
    def test_default_scenario_has_no_recorder(self, small_scenario):
        assert small_scenario.observability is None
        assert small_scenario.hunter.obs is None

    def test_unobserved_run_still_counts_probes(self, small_scenario):
        small_scenario.run_for(20)
        assert small_scenario.fabric.probes_sent > 0
        registry = small_scenario.hunter.metrics
        assert registry.has_series("probes.sent_in_round")
