"""Control-protocol tests: the shared sans-io server helper and the
blocking client's deadline and unsolicited-frame paths."""

import signal
import socket
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import pytest

from repro.exec.worker import WorkerDaemon
from repro.ids.idspace import IdSpace
from repro.net.control import (
    POLL_TIMEOUT,
    ControlClient,
    ControlError,
    ControlServer,
    control_reply,
    parse_ready_line,
    ready_line,
    serve_control_datagram,
)
from repro.net.rendezvous import RendezvousServer
from repro.net.wire import (
    ctl_frame,
    decode_frame,
    encode_frame,
    node_id_to_wire,
    rsp_frame,
)

ADDR = ("127.0.0.1", 1)

SRC = Path(__file__).resolve().parents[2] / "src"


def echo(op, body, addr):
    """Answer every op with what was asked."""
    return {"op": op, "body": body, "from": list(addr)}


class TestServerHelper:
    def test_request_becomes_the_matching_response(self):
        data = encode_frame(ctl_frame(7, "ping", {"x": 1}))
        reply = decode_frame(serve_control_datagram(data, echo, ADDR))
        assert reply == rsp_frame(
            7, {"op": "ping", "body": {"x": 1}, "from": list(ADDR)}
        )

    def test_non_requests_and_declined_ops_get_no_reply(self):
        response = encode_frame(rsp_frame(3, {"ok": True}))
        assert serve_control_datagram(response, echo, ADDR) is None
        request = encode_frame(ctl_frame(3, "ping"))
        assert (
            serve_control_datagram(request, lambda *a: None, ADDR) is None
        )

    @pytest.mark.parametrize(
        "data",
        [
            b"garbage",
            b'{"k":"c","r":1}',  # no op
            b'{"k":"c","op":"ping"}',  # no request id
        ],
    )
    def test_garbage_is_ignored_by_the_datagram_form(self, data):
        assert serve_control_datagram(data, echo, ADDR) is None

    def test_handler_errors_are_the_callers_policy_in_the_frame_form(self):
        def broken(op, body, addr):
            raise KeyError("id")

        frame = ctl_frame(1, "resolve")
        with pytest.raises(KeyError):
            control_reply(frame, broken, ADDR)
        assert (
            serve_control_datagram(encode_frame(frame), broken, ADDR) is None
        )

    def test_oversized_response_becomes_an_error_body(self):
        data = encode_frame(ctl_frame(9, "dump"))
        reply = serve_control_datagram(
            data, lambda *a: {"blob": "x" * 70_000}, ADDR
        )
        assert decode_frame(reply) == rsp_frame(
            9, {"error": "response too large"}
        )

    def test_directory_past_one_datagram_still_answers(self):
        """~990 registrations used to raise inside the rendezvous's
        asyncio callback, so the reply never arrived."""
        server = RendezvousServer(("127.0.0.1", 0), ttl=60.0)
        try:
            space = IdSpace(16, 8)
            for index in range(1200):
                server.handle(
                    "announce",
                    {"id": node_id_to_wire(space.hash_name(f"n{index}"))},
                    ("127.0.0.1", 10_000 + index),
                )
            reply = serve_control_datagram(
                encode_frame(ctl_frame(1, "directory")), server.handle, ADDR
            )
            assert decode_frame(reply)["b"] == {"error": "response too large"}
        finally:
            server.close()


class Peer:
    """A scripted UDP peer: ``script(sock, data, addr)`` runs for each
    datagram it receives, on a background thread."""

    def __init__(self, script):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.settimeout(0.05)
        self.addr = self.sock.getsockname()[:2]
        self.script = script
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                data, addr = self.sock.recvfrom(65535)
            except socket.timeout:
                continue
            self.script(self.sock, data, addr)

    def close(self):
        self._stop.set()
        self._thread.join(timeout=2.0)
        assert not self._thread.is_alive()
        self.sock.close()


def done_frame(tid, rid=0):
    return encode_frame(ctl_frame(rid, "done", {"tid": tid, "state": "done"}))


class TestClientDeadline:
    def test_unrelated_datagrams_do_not_extend_a_try(self):
        """A silent server plus a noisy sender: every datagram read
        used to re-arm the full per-try timeout, so the request
        outlived its budget for as long as the noise lasted."""

        def chatter(sock, data, addr):
            for _ in range(100):  # ~1 s of noise at 10 ms spacing
                sock.sendto(done_frame("noise"), addr)
                sock.sendto(encode_frame(rsp_frame(0, {})), addr)
                time.sleep(0.01)

        peer = Peer(chatter)
        try:
            with ControlClient(timeout=0.1, retries=1) as client:
                started = time.monotonic()
                with pytest.raises(ControlError):
                    client.request(peer.addr, "ping")
                elapsed = time.monotonic() - started
            assert 0.2 <= elapsed < 0.6  # two tries of 0.1 s, not 1 s
        finally:
            peer.close()


class TestUnsolicitedFrames:
    def test_push_during_a_round_trip_is_inboxed_not_lost(self):
        def push_then_answer(sock, data, addr):
            sock.sendto(done_frame("n-0"), addr)
            sock.sendto(
                encode_frame(rsp_frame(decode_frame(data)["r"], {"ok": 1})),
                addr,
            )

        peer = Peer(push_then_answer)
        try:
            with ControlClient(timeout=1.0, retries=0) as client:
                assert client.request(peer.addr, "submit") == {"ok": 1}
                # Already here: no waiting, even with no time allowed.
                assert client.wait(0.0) == (
                    "done", {"tid": "n-0", "state": "done"}, peer.addr
                )
                assert client.wait(0.0) is None
        finally:
            peer.close()

    def test_wait_blocks_for_the_next_push_and_times_out(self):
        def push_later(sock, data, addr):
            time.sleep(0.05)
            sock.sendto(b"not a frame", addr)
            # Well-formed JSON the client used to die of: an unhashable
            # frame kind (TypeError) and nesting past the recursion limit.
            sock.sendto(b'{"k":["c"],"op":"done","r":0,"b":{}}', addr)
            sock.sendto(b"[" * 30000, addr)
            sock.sendto(encode_frame(rsp_frame(99, {})), addr)  # stale
            sock.sendto(done_frame("n-1"), addr)

        peer = Peer(push_later)
        try:
            with ControlClient(timeout=1.0, retries=0) as client:
                client._sock.sendto(b"go", peer.addr)
                op, body, source = client.wait(2.0)
                assert (op, body["tid"], source) == ("done", "n-1", peer.addr)
                started = time.monotonic()
                assert client.wait(0.05) is None
                assert time.monotonic() - started < 0.5
        finally:
            peer.close()

    def test_inbox_is_bounded(self, monkeypatch):
        monkeypatch.setattr("repro.net.control.MAX_INBOX", 4)

        def flood_then_answer(sock, data, addr):
            for index in range(10):
                sock.sendto(done_frame(f"n-{index}"), addr)
            sock.sendto(
                encode_frame(rsp_frame(decode_frame(data)["r"], {})), addr
            )

        peer = Peer(flood_then_answer)
        try:
            with ControlClient(timeout=2.0, retries=0) as client:
                client.request(peer.addr, "ping")
                drained = []
                while True:
                    frame = client.wait(0.0)
                    if frame is None:
                        break
                    drained.append(frame[1]["tid"])
            # Oldest dropped first: every push has a poll behind it.
            assert drained == ["n-6", "n-7", "n-8", "n-9"]
        finally:
            peer.close()


class Echo(ControlServer):
    """Answers every op with its name; the ``stop`` op stops."""

    kind = "echo"

    def handle(self, op, body, addr):
        if op == "stop":
            self.stop()
        return {"op": op}


def serving(server):
    """Open ``server`` and run its serve loop on a thread."""
    server.open()
    thread = threading.Thread(target=server.serve, daemon=True)
    thread.start()
    return thread


class TestReadyLine:
    def test_formats_round_trip_through_the_parser(self):
        line = ready_line("worker", ("127.0.0.1", 7001), "de83fa11")
        assert line == (
            "REPRO-NET READY kind=worker id=de83fa11 host=127.0.0.1 port=7001"
        )
        assert parse_ready_line(line) == {
            "kind": "worker", "id": "de83fa11",
            "host": "127.0.0.1", "port": "7001",
        }
        assert ready_line("rendezvous", ("h", 9)) == (
            "REPRO-NET READY kind=rendezvous host=h port=9"
        )

    def test_other_lines_parse_to_none(self):
        assert parse_ready_line("starting up: kind=worker") is None


class TestControlServer:
    def test_control_only_servers_load_no_asyncio(self):
        """The rendezvous used to run a private asyncio loop."""
        code = (
            "import sys; import repro.net.rendezvous, repro.exec.worker; "
            "assert 'asyncio' not in sys.modules"
        )
        subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            env={"PYTHONPATH": str(SRC)},
        )

    def test_stop_op_answered_from_handle_ends_serve(self):
        server = Echo(("127.0.0.1", 0))
        thread = serving(server)
        try:
            with ControlClient(timeout=1.0, retries=2) as client:
                assert client.request(server.listen, "stop") == {"op": "stop"}
            thread.join(timeout=1.0)
            assert not thread.is_alive()
        finally:
            server.close()
            thread.join(timeout=2.0)

    def test_garbage_is_dropped_and_the_loop_keeps_answering(self):
        server = Echo(("127.0.0.1", 0))
        thread = serving(server)
        try:
            with ControlClient(timeout=1.0, retries=0) as client:
                for data in (b"garbage", b'{"k":"c","r":1}', b"[" * 30000):
                    client._sock.sendto(data, server.listen)
                assert client.request(server.listen, "ping") == {"op": "ping"}
            assert thread.is_alive()
        finally:
            server.close()
            thread.join(timeout=2.0)

    def test_close_from_another_thread_ends_serve(self):
        server = Echo(("127.0.0.1", 0))
        thread = serving(server)
        server.close()
        thread.join(timeout=1.0)
        assert not thread.is_alive()

    def test_worker_announces_within_one_poll_of_serving(
        self, monkeypatch
    ):
        """A fresh worker heartbeats at once, not after its interval,
        even on a host whose monotonic clock reads 1 s (soon after
        boot)."""
        monkeypatch.setattr(
            "repro.exec.worker.time", types.SimpleNamespace(monotonic=lambda: 1.0)
        )
        directory = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        directory.bind(("127.0.0.1", 0))
        directory.settimeout(POLL_TIMEOUT * 5)
        worker = WorkerDaemon(
            ("127.0.0.1", 0),
            rendezvous=directory.getsockname()[:2],
            announce_interval=60.0,
        )
        started = time.monotonic()
        thread = serving(worker)
        try:
            frame = decode_frame(directory.recvfrom(65535)[0])
            assert time.monotonic() - started < POLL_TIMEOUT * 2
            assert frame["op"] == "announce"
            assert frame["b"]["kind"] == "worker"
        finally:
            worker.close()
            thread.join(timeout=2.0)
            directory.close()


def spawn_daemon(*args):
    """Start ``python -m repro ARGS``; returns it and its READY fields."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=subprocess.PIPE,
        text=True,
        env={"PYTHONPATH": str(SRC)},
    )
    return proc, parse_ready_line(proc.stdout.readline())


class TestSigterm:
    def test_killed_worker_leaves_the_directory_and_exits_0(self):
        rendezvous, fields = spawn_daemon(
            "rendezvous", "--listen", "127.0.0.1:0"
        )
        directory = (fields["host"], int(fields["port"]))
        worker = None
        try:
            worker, fields = spawn_daemon(
                "worker", "--listen", "127.0.0.1:0",
                "--rendezvous", f"{directory[0]}:{directory[1]}",
            )
            worker_addr = [fields["host"], int(fields["port"])]

            def listed():
                with ControlClient(timeout=0.5, retries=4) as client:
                    rows = client.request(directory, "directory")["nodes"]
                return worker_addr in [row[1] for row in rows]

            deadline = time.monotonic() + 5.0
            while not listed() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert listed()
            worker.send_signal(signal.SIGTERM)
            killed = time.monotonic()
            while listed() and time.monotonic() - killed < 1.0:
                time.sleep(0.05)
            assert not listed()
            assert worker.wait(timeout=5.0) == 0
        finally:
            for proc in (worker, rendezvous):
                if proc is not None:
                    proc.kill()
                    proc.wait()
                    proc.stdout.close()
