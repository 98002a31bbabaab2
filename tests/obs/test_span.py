"""Tests for timed spans: nesting, timing, and the disabled path."""

from repro.obs.span import NULL_SPAN, NullSpan, Span, open_span
from repro.obs.trace import TraceRecorder


class TestSpanTiming:
    def test_open_span_is_not_closed(self):
        with TraceRecorder().span("work") as span:
            assert not span.closed
            assert span.wall_duration_s is None
        assert span.closed

    def test_wall_duration_is_nonnegative(self):
        recorder = TraceRecorder()
        with recorder.span("work"):
            sum(range(1000))
        span = recorder.spans("work")[0]
        assert span.wall_duration_s >= 0.0
        assert span.wall_end >= span.wall_start

    def test_sim_time_defaults_to_instantaneous(self):
        recorder = TraceRecorder()
        with recorder.span("work", sim_time=42.0):
            pass
        span = recorder.spans("work")[0]
        assert span.sim_start == 42.0
        assert span.sim_end == 42.0
        assert span.sim_duration_s == 0.0

    def test_explicit_sim_close_records_elapsed(self):
        recorder = TraceRecorder()
        with recorder.span("round", sim_time=10.0) as span:
            span.close(sim_time=12.0)
        assert span.sim_duration_s == 2.0
        assert span.closed

    def test_set_attaches_attributes(self):
        recorder = TraceRecorder()
        with recorder.span("round", phase="basic") as span:
            span.set(probes=8, lost=1)
        assert span.attrs == {"phase": "basic", "probes": 8, "lost": 1}


class TestSpanNesting:
    def test_child_knows_its_parent(self):
        recorder = TraceRecorder()
        with recorder.span("outer") as outer:
            with recorder.span("inner") as inner:
                pass
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id

    def test_children_of_returns_direct_children_only(self):
        recorder = TraceRecorder()
        with recorder.span("outer") as outer:
            with recorder.span("mid") as mid:
                with recorder.span("leaf"):
                    pass
            with recorder.span("mid2"):
                pass
        names = sorted(s.name for s in recorder.children_of(outer))
        assert names == ["mid", "mid2"]
        assert [s.name for s in recorder.children_of(mid)] == ["leaf"]

    def test_siblings_after_close_are_not_nested(self):
        recorder = TraceRecorder()
        with recorder.span("first"):
            pass
        with recorder.span("second") as second:
            pass
        assert second.parent_id is None

    def test_events_inside_span_carry_its_id(self):
        recorder = TraceRecorder()
        with recorder.span("round") as span:
            recorder.event("probe.sent")
        recorder.event("after")
        assert recorder.events("probe.sent")[0].span_id == span.span_id
        assert recorder.events("after")[0].span_id is None

    def test_ids_share_one_sequence_with_events(self):
        recorder = TraceRecorder()
        recorder.event("a")
        with recorder.span("s"):
            pass
        recorder.event("b")
        seqs = [recorder.events("a")[0].seq,
                recorder.spans("s")[0].span_id,
                recorder.events("b")[0].seq]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 3


class TestDisabled:
    def test_disabled_recorder_yields_null_span(self):
        # No recorder is how a component runs unobserved.
        with open_span(None, "work") as span:
            assert isinstance(span, NullSpan)
            span.set(ignored=True)
            span.close(sim_time=5.0)

    def test_null_span_is_a_shared_noop(self):
        assert NULL_SPAN.set(x=1) is NULL_SPAN
        assert NULL_SPAN.closed
        assert NULL_SPAN.close() is None


class TestSerialization:
    def test_to_dict_round_trips_key_fields(self):
        recorder = TraceRecorder()
        with recorder.span("round", sim_time=3.0) as span:
            span.set(probes=4)
        row = span.to_dict()
        assert row["type"] == "span"
        assert row["name"] == "round"
        assert row["sim_start"] == 3.0
        assert row["attrs"] == {"probes": 4}
        assert row["wall_duration_s"] >= 0.0

    def test_span_dataclass_defaults(self):
        span = Span(name="x", span_id=1)
        assert not span.closed
        assert span.sim_duration_s == 0.0
