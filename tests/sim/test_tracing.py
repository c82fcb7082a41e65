"""Tests for trace recording."""

from repro.sim import NullTracer, TraceRecorder


class TestTraceRecorder:
    def test_records_in_order(self):
        tracer = TraceRecorder()
        tracer.record(100, "core0", "issue", "ADD")
        tracer.record(200, "core0", "issue", "SUB")
        assert [r.kind for r in tracer] == ["issue", "issue"]
        assert [r.time_ps for r in tracer] == [100, 200]

    def test_kind_filter_at_record_time(self):
        tracer = TraceRecorder(kinds={"issue"})
        tracer.record(1, "core0", "issue")
        tracer.record(2, "core0", "token")
        assert len(tracer) == 1

    def test_capacity_keeps_newest_and_counts_drops(self):
        """A full recorder behaves as a flight recorder: oldest evicted."""
        tracer = TraceRecorder(capacity=2)
        for t in range(5):
            tracer.record(t, "x", "k")
        assert len(tracer) == 2
        assert tracer.dropped == 3
        assert [r.time_ps for r in tracer] == [3, 4]

    def test_repr_surfaces_drops(self):
        tracer = TraceRecorder(capacity=1)
        tracer.record(1, "x", "k")
        tracer.record(2, "x", "k")
        assert "1/1" in repr(tracer) and "1 dropped" in repr(tracer)
        assert tracer.stats() == {"records": 1, "capacity": 1, "dropped": 1}

    def test_unbounded_repr(self):
        tracer = TraceRecorder()
        tracer.record(1, "x", "k")
        assert "1/inf" in repr(tracer)
        assert tracer.capacity is None

    def test_invalid_capacity_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)

    def test_filter_by_source_and_kind(self):
        tracer = TraceRecorder()
        tracer.record(1, "a", "x")
        tracer.record(2, "b", "x")
        tracer.record(3, "a", "y")
        assert len(tracer.filter(kind="x")) == 2
        assert len(tracer.filter(source="a")) == 2
        assert len(tracer.filter(kind="x", source="a")) == 1

    def test_filter_predicate(self):
        tracer = TraceRecorder()
        tracer.record(1, "a", "x", 5)
        tracer.record(2, "a", "x", 50)
        hits = tracer.filter(predicate=lambda r: r.detail[0] > 10)
        assert len(hits) == 1

    def test_first_and_last(self):
        tracer = TraceRecorder()
        tracer.record(1, "a", "x")
        tracer.record(9, "a", "x")
        assert tracer.first("x").time_ps == 1
        assert tracer.last("x").time_ps == 9
        assert tracer.first("missing") is None

    def test_digest_is_stable(self):
        t1, t2 = TraceRecorder(), TraceRecorder()
        for t in (t1, t2):
            t.record(1, "a", "x", "p")
        assert t1.digest() == t2.digest()

    def test_digest_differs_on_content(self):
        t1, t2 = TraceRecorder(), TraceRecorder()
        t1.record(1, "a", "x")
        t2.record(2, "a", "x")
        assert t1.digest() != t2.digest()

    def test_clear(self):
        tracer = TraceRecorder(capacity=1)
        tracer.record(1, "a", "x")
        tracer.record(2, "a", "x")
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.dropped == 0

    def test_str_render(self):
        tracer = TraceRecorder()
        tracer.record(1, "core0", "issue", "ADD")
        text = str(tracer[0])
        assert "core0" in text and "ADD" in text


class TestNullTracer:
    def test_drops_everything(self):
        tracer = NullTracer()
        tracer.record(1, "a", "x")
        assert len(tracer) == 0


class TestSink:
    def test_sink_records_exactly_what_record_does(self):
        via_record = TraceRecorder(capacity=3)
        via_sink = TraceRecorder(capacity=3)
        sink = via_sink.sink("issue")
        for t in range(5):
            via_record.record(t, "core0", "issue", "core0.t0")
            sink(t, "core0", ("core0.t0",))
        assert via_sink.records == via_record.records
        assert via_sink.digest() == via_record.digest()
        assert via_sink.dropped == via_record.dropped == 2

    def test_filtered_kind_has_no_sink(self):
        assert TraceRecorder(kinds={"token"}).sink("issue") is None
        assert TraceRecorder(kinds={"issue"}).sink("issue") is not None
        assert NullTracer().sink("issue") is None

    def test_sink_survives_clear(self):
        tracer = TraceRecorder()
        sink = tracer.sink("issue")
        sink(1, "core0", ())
        tracer.clear()
        sink(2, "core0", ())
        assert [r.time_ps for r in tracer] == [2]
        assert tracer.dropped == 0
