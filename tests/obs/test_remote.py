"""Distributed-telemetry primitives: paging, clock sync, trace merge."""

import json

import pytest

from repro.obs.export import read_trace_jsonl
from repro.obs.remote import (
    ClockSample,
    ClockSync,
    ClockSyncError,
    DaemonTrace,
    RemoteTelemetry,
    merge_traces,
)


def _fill(telemetry: RemoteTelemetry, spans: int, events: int) -> None:
    tracer = telemetry.tracer
    for i in range(spans):
        span = tracer.start_span("join", float(i))
        tracer.end_span(span, float(i) + 1.0)
    for i in range(events):
        tracer.event(
            "message.send", float(i), msg=f"n#{i:08d}", type="CpRstMsg"
        )


class TestExportPaging:
    def test_single_page_when_under_limit(self):
        telemetry = RemoteTelemetry(node="0123")
        _fill(telemetry, spans=3, events=4)
        page = telemetry.export_page(limit=50)
        assert page["node"] == "0123"
        assert len(page["spans"]) == 3
        assert len(page["events"]) == 4
        assert page["done"] is True

    def test_pages_chain_without_loss_or_duplication(self):
        telemetry = RemoteTelemetry()
        _fill(telemetry, spans=7, events=11)
        spans, events = [], []
        cursor = (0, 0)
        for _ in range(100):
            page = telemetry.export_page(
                spans_from=cursor[0], events_from=cursor[1], limit=5
            )
            spans.extend(page["spans"])
            events.extend(page["events"])
            if page["done"]:
                break
            cursor = tuple(page["next"])
        assert len(spans) == 7
        assert len(events) == 11
        assert len({json.dumps(r, sort_keys=True) for r in spans}) == 7
        assert len({e["attrs"]["msg"] for e in events}) == 11

    def test_page_fits_limit_exactly(self):
        telemetry = RemoteTelemetry()
        _fill(telemetry, spans=2, events=9)
        page = telemetry.export_page(limit=5)
        assert len(page["spans"]) + len(page["events"]) == 5
        assert page["done"] is False

    @pytest.mark.parametrize("cursor", [(0, -3), (-1, 0), (-2, -2)])
    def test_negative_cursor_is_an_error(self, cursor):
        telemetry = RemoteTelemetry()
        _fill(telemetry, spans=2, events=5)
        page = telemetry.export_page(
            spans_from=cursor[0], events_from=cursor[1]
        )
        assert set(page) == {"error"}
        assert "negative cursor" in page["error"]

    def test_spool_round_trips(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        telemetry = RemoteTelemetry(spool_path=path)
        _fill(telemetry, spans=2, events=3)
        assert telemetry.write_spool() == 5
        spans, events = read_trace_jsonl(path)
        assert (len(spans), len(events)) == (2, 3)

    def test_spool_without_path_is_noop(self):
        assert RemoteTelemetry().write_spool() is None


class TestClockSync:
    def test_offset_from_min_rtt_sample(self):
        # Daemon clock runs 2.5s ahead; second sample has least delay.
        samples = [
            ClockSample(t0=10.0, server_wall=13.0, t1=11.0),
            ClockSample(t0=20.0, server_wall=22.55, t1=20.1),
            ClockSample(t0=30.0, server_wall=33.9, t1=32.0),
        ]
        sync = ClockSync(samples)
        assert sync.best is samples[1]
        assert sync.rtt == pytest.approx(0.1)
        assert sync.offset == pytest.approx(2.5)
        assert sync.to_collector_wall(22.55) == pytest.approx(20.05)

    def test_symmetric_network_yields_exact_offset(self):
        # With perfectly symmetric delay the midpoint estimate is exact
        # regardless of the RTT magnitude.
        sync = ClockSync([ClockSample(t0=0.0, server_wall=5.4, t1=0.8)])
        assert sync.offset == pytest.approx(5.0)

    def test_no_samples_rejected(self):
        with pytest.raises(ClockSyncError):
            ClockSync([])


def _trace(name, *, send_at, deliver=None, anchor_now=0.0, wall=0.0,
           scale=1.0, offset=0.0):
    events = [
        {
            "kind": "event", "name": "message.send", "time": send_at,
            "span": None,
            "attrs": {"msg": f"{name}#00000001", "type": "CpRstMsg",
                      "src": name, "dst": "x"},
        }
    ]
    if deliver is not None:
        events.append(
            {
                "kind": "event", "name": "message.deliver",
                "time": deliver, "span": 3,
                "attrs": {"msg": f"{name}#00000001"},
            }
        )
    return DaemonTrace(
        name=name,
        spans=[{"kind": "span", "id": 1, "parent": None, "name": "join",
                "start": send_at, "end": None, "attrs": {"node": name}}],
        events=events,
        anchor_now=anchor_now,
        anchor_collector_wall=wall,
        time_scale=scale,
        clock_offset=offset,
    )


class TestMergeTraces:
    def test_empty(self):
        assert merge_traces([]) == ([], [])

    def test_span_ids_namespaced_per_daemon(self):
        spans, events = merge_traces(
            [
                _trace("a", send_at=1.0, deliver=1.5),
                _trace("b", send_at=2.0),
            ]
        )
        assert sorted(s["id"] for s in spans) == ["a:1", "b:1"]
        assert all(s["parent"] is None for s in spans)
        deliver = next(e for e in events if e["name"] == "message.deliver")
        assert deliver["span"] == "a:3"

    def test_message_attrs_untouched(self):
        _, events = merge_traces([_trace("a", send_at=1.0)])
        assert events[0]["attrs"]["msg"] == "a#00000001"

    def test_times_rebased_to_cluster_origin(self):
        # Daemon b's clock anchor places its records 10 wall-seconds
        # after daemon a's; with scale 1 its t=0 maps to merged t=10.
        spans, _ = merge_traces(
            [
                _trace("a", send_at=0.0, wall=100.0),
                _trace("b", send_at=0.0, wall=110.0),
            ]
        )
        by_id = {s["id"]: s for s in spans}
        assert by_id["a:1"]["start"] == 0.0
        assert by_id["b:1"]["start"] == 10.0

    def test_clock_offset_correction_orders_cross_daemon_events(self):
        # The same wire exchange seen by two daemons whose protocol
        # clocks are wildly offset: sender sends at its local t=1000,
        # receiver delivers at its local t=3.  The anchors (from clock
        # sampling) map both onto one axis where send < deliver.
        sender = _trace(
            "s", send_at=1000.0, anchor_now=990.0, wall=50.0, scale=0.001
        )
        receiver = DaemonTrace(
            name="r",
            events=[{
                "kind": "event", "name": "message.deliver", "time": 3.0,
                "span": None, "attrs": {"msg": "s#00000001"},
            }],
            anchor_now=0.0,
            anchor_collector_wall=50.009,
            time_scale=0.001,
        )
        _, events = merge_traces([sender, receiver])
        send = next(e for e in events if e["name"] == "message.send")
        deliver = next(e for e in events if e["name"] == "message.deliver")
        # Send wall = 50.0 + 10*0.001 = 50.010; deliver wall = 50.009
        # + 3*0.001 = 50.012 -> 2 protocol units apart, send first.
        assert send["time"] < deliver["time"]
        assert deliver["time"] - send["time"] == pytest.approx(2.0)

    def test_merge_is_deterministic(self):
        traces = [
            _trace("a", send_at=5.0, wall=7.0),
            _trace("b", send_at=5.0, wall=7.0),
        ]
        first = merge_traces(traces)
        second = merge_traces(list(reversed(traces)))
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
