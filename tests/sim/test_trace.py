"""Unit tests for the trace log."""

from repro.core.trace import NullTraceLog, TraceLog, TraceRecord


class TestTraceLog:
    def test_records_everything_by_default(self):
        log = TraceLog()
        log.record(1.0, "status", node="x")
        log.record(2.0, "fill", node="y")
        assert len(log) == 2

    def test_category_filter(self):
        log = TraceLog(categories=["status"])
        log.record(1.0, "status", node="x")
        log.record(2.0, "fill", node="y")
        assert log.count("status") == 1
        assert log.count("fill") == 0

    def test_records_by_category(self):
        log = TraceLog()
        log.record(1.0, "a", v=1)
        log.record(2.0, "b", v=2)
        assert [r.category for r in log.records("a")] == ["a"]
        assert len(log.records()) == 2

    def test_record_get(self):
        record = TraceRecord(1.0, "x", (("k", "v"),))
        assert record.get("k") == "v"
        assert record.get("missing", 7) == 7

    def test_clear(self):
        log = TraceLog()
        log.record(1.0, "a")
        log.clear()
        assert len(log) == 0

    def test_null_trace_drops_everything(self):
        log = NullTraceLog()
        log.record(1.0, "a", v=1)
        assert len(log) == 0
        assert not log.enabled("a")
