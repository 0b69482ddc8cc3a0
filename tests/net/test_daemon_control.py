"""The node daemon's control path over a real socket: one garbage rule
with the other op servers, and telemetry cursors that cannot rewind."""

import logging
import socket

from repro.net.daemon import NodeDaemon, NodeDaemonConfig
from repro.net.wire import ctl_frame, decode_frame, encode_frame

from tests.net.conftest import TEST_TIME_SCALE


def _serve(requests, caplog):
    """Send ``requests`` (``(rid, op, body)``) to a telemetry-enabled
    seed daemon, then ``stop`` it; returns ``(responses by rid, the
    daemon's transport counters)``."""
    daemon = NodeDaemon(NodeDaemonConfig(
        ("127.0.0.1", 0), base=4, num_digits=4, seed_node=True,
        telemetry=True, time_scale=TEST_TIME_SCALE, wall_budget=10.0,
    ))
    addr = daemon.start()
    client = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    client.bind(("127.0.0.1", 0))
    client.settimeout(0.5)
    try:
        # Queued in the daemon's socket buffer, read in order once the
        # runtime runs; ``stop`` ends the run after its grace period.
        for rid, op, body in requests + [(999, "stop", {})]:
            client.sendto(encode_frame(ctl_frame(rid, op, body)), addr)
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            daemon.run()
        responses = {}
        try:
            while True:
                frame = decode_frame(client.recv(65536))
                responses[frame["r"]] = frame["b"]
        except socket.timeout:
            pass
    finally:
        client.close()
    return responses, daemon.transport.counters


class TestDaemonControlPath:
    def test_unparseable_body_is_malformed_not_a_traceback(self, caplog):
        responses, counters = _serve(
            [(1, "telemetry", {"limit": "abc"}), (2, "hello", {})], caplog
        )
        assert 1 not in responses  # dropped, like any other garbage
        assert "id" in responses[2]  # and the daemon kept serving
        assert responses[999] == {"ok": True}
        assert counters["malformed"] == 1
        assert not [r for r in caplog.records if r.name == "asyncio"]

    def test_negative_telemetry_cursor_is_answered_with_an_error(
        self, caplog
    ):
        responses, counters = _serve(
            [(1, "telemetry", {"events_from": -3}),
             (2, "telemetry", {"spans_from": -1}),
             (3, "telemetry", {})],
            caplog,
        )
        assert "negative cursor" in responses[1]["error"]
        assert "negative cursor" in responses[2]["error"]
        assert "error" not in responses[3]
        assert responses[3]["next"] == [
            len(responses[3]["spans"]), len(responses[3]["events"])
        ]
        assert counters["malformed"] == 0
