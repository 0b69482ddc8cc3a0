"""``repro top`` tests: table rendering and a live poll against a
rendezvous plus a canned-status daemon."""

import io
import socket
import threading

from repro.ids.idspace import IdSpace
from repro.net.control import ControlClient
from repro.net.rendezvous import RendezvousServer
from repro.net.top import poll_cluster, render_rows, run_top
from repro.net.wire import (
    CTL,
    decode_frame,
    encode_frame,
    node_id_to_wire,
    rsp_frame,
)

SPACE = IdSpace(4, 4)


class TestRenderRows:
    def test_header_and_alignment(self):
        text = render_rows([])
        assert text.startswith("NODE")
        assert "UNACKED" in text and "RTT-MS" in text

    def test_value_formatting(self):
        rows = [
            {
                "node": "0123", "status": "in_system", "s": True,
                "table": 12, "unacked": 0, "retransmits": 0,
                "deduped": 3, "rtt_ms": 0.44, "now": 812.0,
            },
            {"node": "2330", "status": "unreachable"},
        ]
        lines = render_rows(rows).splitlines()
        assert len(lines) == 3
        # Bools render as a star, floats to one decimal, missing as -.
        assert "*" in lines[1] and "0.4" in lines[1]
        assert "unreachable" in lines[2] and "-" in lines[2]

    def test_false_bool_renders_empty(self):
        line = render_rows(
            [{"node": "1", "status": "waiting", "s": False}]
        ).splitlines()[1]
        assert "*" not in line


class _CannedDaemon:
    """A UDP endpoint that answers ``status`` control requests with a
    fixed body -- a daemon's control surface without a daemon."""

    def __init__(self, body):
        self.body = body
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.settimeout(0.1)
        self.addr = self._sock.getsockname()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                data, src = self._sock.recvfrom(65535)
            except socket.timeout:
                continue
            except OSError:
                return
            frame = decode_frame(data)
            if frame.get("k") == CTL and frame.get("op") == "status":
                self._sock.sendto(
                    encode_frame(rsp_frame(frame["r"], self.body)), src
                )

    def announce(self, rendezvous, node_id, s):
        """Register with the rendezvous *from this socket*, so the
        recorded source address is the daemon's own."""
        self._sock.sendto(
            encode_frame(
                {
                    "k": CTL, "r": 99, "op": "announce",
                    "b": {"id": node_id_to_wire(node_id), "s": s},
                }
            ),
            rendezvous,
        )

    def close(self):
        self._stop.set()
        self._thread.join(timeout=2.0)
        self._sock.close()


class TestLivePoll:
    def test_poll_and_run_top_against_live_roster(self):
        server = RendezvousServer(("127.0.0.1", 0), ttl=60.0)
        rendezvous = server.open()
        server_thread = threading.Thread(target=server.serve, daemon=True)
        server_thread.start()
        daemon = _CannedDaemon(
            {
                "id": "0123", "status": "in_system", "s": True,
                "table_filled": 9, "now": 42.0, "telemetry": True,
                "wire": {"sent": 17, "retransmitted": 1, "unacked": 0},
                "net": {
                    "wire_bytes_sent": 20917, "wire_bytes_received": 344,
                    "duplicates_suppressed": 2,
                },
            }
        )
        # A registered-but-gone daemon: announces, then its socket dies.
        ghost = _CannedDaemon({})
        try:
            with ControlClient(timeout=0.2, retries=1) as client:
                daemon.announce(
                    rendezvous, SPACE.from_string("0123"), s=True
                )
                ghost.announce(
                    rendezvous, SPACE.from_string("2330"), s=False
                )
                ghost.close()
                # Wait until the rendezvous has both registrations.
                for _ in range(50):
                    pong = client.request(rendezvous, "ping")
                    if pong["nodes"] == 2:
                        break
                assert pong["nodes"] == 2

                # The live daemon shows with its wire counters; the
                # dead one still gets a row instead of vanishing.
                rows = poll_cluster(client, rendezvous)
                by_node = {row["node"]: row for row in rows}
                assert set(by_node) == {"0123", "2330"}
                live = by_node["0123"]
                assert live["status"] == "in_system"
                assert live["s"] is True
                assert live["retransmits"] == 1
                assert live["deduped"] == 2
                assert (live["tx_bytes"], live["rx_bytes"]) == (20917, 344)
                assert live["rtt_ms"] >= 0.0
                assert by_node["2330"]["status"] == "unreachable"

                out = io.StringIO()
                taken = run_top(
                    rendezvous, interval=0.0, iterations=2,
                    out=out, client=client,
                )
                assert taken == 2
                text = out.getvalue()
                assert text.count("repro top --") == 2
                assert "0123" in text and "in_system" in text
                assert "TX-B" in text and "20917" in text
                # Not a TTY: no clear codes, samples just append.
                assert "\x1b" not in text
        finally:
            daemon.close()
            server.stop()
            server_thread.join(timeout=5.0)
            server.close()
