"""The control protocol's two ends: a blocking client and the server side.

The cluster harness, the CLI and the tests live *outside* any runtime
loop; they need plain blocking request/response against node daemons
and the rendezvous service.  :class:`ControlClient` is that: one UDP
socket, a request id counter, per-request timeout with retries
(control requests are idempotent reads or idempotent commands, so
retrying is safe), and response matching by request id.  ``c``-frames
nobody asked for -- a worker's ``done`` push -- are not discarded
while a request is in flight: they queue in a small bounded inbox that
:meth:`ControlClient.wait` drains.

The server side is one pair of functions every op server shares (the
rendezvous directory, the sweep worker, the node daemon's transport):
:func:`control_reply` turns a decoded ``c`` frame plus a
``handle(op, body, addr)`` callable into the encoded ``r`` datagram,
and :func:`serve_control_datagram` does the same from raw bytes,
ignoring garbage.  A response that would not fit one datagram becomes
``{"error": "response too large"}`` rather than an exception in a
serve loop or an asyncio callback.

The two control-only servers, the rendezvous directory and the sweep
worker, also share one blocking serve loop, :class:`ControlServer`.
The node daemon keeps its asyncio transport: its control ops share a
socket with protocol traffic.  Every daemon's startup line is one
:func:`ready_line`, read back by :func:`parse_ready_line`.
"""

from __future__ import annotations

import collections
import signal
import socket
import threading
import time
from typing import Any, Callable, Deque, Dict, Iterator, Optional, Tuple

from repro.net.wire import (
    Address,
    CTL,
    RSP,
    ctl_frame,
    decode_frame,
    encode_frame,
    rsp_frame,
)
from repro.runtime.codec import CodecError, OversizedMessageError

#: ``handle(op, body, addr)`` -> response body (``None``: no response).
ControlHandler = Callable[
    [str, Dict[str, Any], Address], Optional[Dict[str, Any]]
]

#: An unsolicited control frame as ``(op, body, source address)``.
Unsolicited = Tuple[str, Dict[str, Any], Address]

#: What decoding and dispatching a datagram raises when the datagram is
#: garbage (undecodable, half-spoken, or a body a handler cannot
#: parse, e.g. ``{"limit": "abc"}``).  Every receive path drops it; the
#: node transport counts it as ``malformed``.
MALFORMED = (CodecError, KeyError, TypeError, ValueError)

#: Unsolicited frames kept while nobody is in :meth:`ControlClient.wait`
#: (oldest dropped first; every push has an idempotent poll behind it).
MAX_INBOX = 256

#: Socket poll granularity of :meth:`ControlServer.serve` (seconds).
POLL_TIMEOUT = 0.2

#: What every daemon's startup line begins with.
READY_PREFIX = "REPRO-NET READY"


def ready_line(kind: str, addr: Address, node_id: Any = None) -> str:
    """``REPRO-NET READY kind=K [id=I] host=H port=P``: the startup
    line supervisors wait for."""
    node = "" if node_id is None else f" id={node_id}"
    return f"{READY_PREFIX} kind={kind}{node} host={addr[0]} port={addr[1]}"


def parse_ready_line(line: str) -> Optional[Dict[str, str]]:
    """The fields of a :func:`ready_line`; ``None`` for other lines."""
    if not line.startswith(READY_PREFIX):
        return None
    return dict(part.split("=", 1) for part in line.split() if "=" in part)


def control_reply(
    frame: Dict[str, Any], handle: ControlHandler, addr: Address
) -> Optional[bytes]:
    """The encoded response to one decoded frame, or ``None`` when
    there is nothing to send (not a request, or ``handle`` declined).

    A half-spoken request (no ``op``/``r``) raises ``KeyError``, and
    whatever ``handle`` raises passes through: what counts as garbage
    is the caller's policy.
    """
    if frame.get("k") != CTL:
        return None  # e.g. the response to a fire-and-forget announce
    op, rid = frame["op"], frame["r"]  # half-spoken: before any effect
    response = handle(op, frame.get("b") or {}, addr)
    if response is None:
        return None
    try:
        return encode_frame(rsp_frame(rid, response))
    except OversizedMessageError:
        return encode_frame(rsp_frame(rid, {"error": "response too large"}))


def serve_control_datagram(
    data: bytes, handle: ControlHandler, addr: Address
) -> Optional[bytes]:
    """:func:`control_reply` from raw bytes; undecodable or
    half-spoken datagrams are ignored (a serve loop must not die of
    what arrives on its socket)."""
    try:
        return control_reply(decode_frame(data), handle, addr)
    except MALFORMED:
        return None


class ControlServer:
    """A control-only UDP server around a subclass's ``handle(op,
    body, addr)``: :meth:`serve` polls one socket every
    :data:`POLL_TIMEOUT` seconds, calling :meth:`tick` as it starts
    and after every poll, until :meth:`stop` or :meth:`close`."""

    #: The ``kind=`` of the READY line.
    kind = "server"

    def __init__(self, listen: Address):
        self.listen = listen
        self._sock: Optional[socket.socket] = None
        self._stop = threading.Event()

    def open(self) -> Address:
        """Bind the socket; returns the bound address."""
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind(self.listen)
        self._sock.settimeout(POLL_TIMEOUT)
        self.listen = self._sock.getsockname()[:2]
        return self.listen

    def handler(self) -> ControlHandler:
        """What :meth:`serve` dispatches each datagram to."""
        return self.handle  # type: ignore[attr-defined]

    def tick(self) -> None:
        """Periodic work between polls (none by default)."""

    def serve(self) -> None:
        """Answer control requests until stopped."""
        sock, handle = self._sock, self.handler()
        assert sock is not None, "serve() before open()"
        self.tick()
        while not self._stop.is_set():
            try:
                data, (host, port) = sock.recvfrom(65535)
            except socket.timeout:
                pass
            except OSError:
                break  # socket closed under us (close() from another thread)
            else:
                reply = serve_control_datagram(data, handle, (host, port))
                if reply is not None:
                    self.sendto(reply, (host, port))
            self.tick()

    def sendto(self, data: bytes, addr: Address) -> bool:
        """Fire-and-forget one datagram (threadsafe); ``False`` if unsent."""
        sock = self._sock
        if sock is None:
            return False
        try:
            sock.sendto(data, addr)
        except OSError:  # addr unreachable
            return False
        return True

    def stop(self) -> None:
        """Ask the serve loop to exit (threadsafe)."""
        self._stop.set()

    def close(self) -> None:
        """Stop serving and release the socket."""
        self.stop()
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def ready_line(self) -> str:
        """This server's :func:`ready_line`."""
        return ready_line(self.kind, self.listen)

    def run(self) -> int:
        """The daemon: open, print the READY line, serve, close.  On
        the main thread SIGTERM stops the loop as :meth:`stop` does,
        so a ``kill``ed daemon still closes."""
        on_main = threading.current_thread() is threading.main_thread()
        if on_main:
            previous = signal.signal(signal.SIGTERM, lambda *_: self.stop())
        self.open()
        print(self.ready_line(), flush=True)
        try:
            self.serve()
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        finally:
            self.close()
            if on_main:
                signal.signal(signal.SIGTERM, previous)
        return 0


class ControlError(RuntimeError):
    """A control request got no response within its retry budget."""


class ControlClient:
    """Blocking UDP control requests with retries, plus an inbox for
    the ``c``-frames peers send unasked."""

    def __init__(self, timeout: float = 1.0, retries: int = 5):
        self.timeout = timeout
        self.retries = retries
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind(("127.0.0.1", 0))
        self._next_rid = 1
        self._inbox: Deque[Unsolicited] = collections.deque(maxlen=MAX_INBOX)

    def close(self) -> None:
        """Release the client socket."""
        self._sock.close()

    def __enter__(self) -> "ControlClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _frames(
        self, deadline: float
    ) -> Iterator[Tuple[Dict[str, Any], Address]]:
        """Decodable frames and their sources as they arrive, until
        ``deadline`` (``time.monotonic()``) has passed."""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            self._sock.settimeout(remaining)
            try:
                raw, src = self._sock.recvfrom(65535)
                frame = decode_frame(raw)
            except socket.timeout:
                return
            except CodecError:
                continue
            yield frame, (src[0], src[1])

    @staticmethod
    def _unsolicited(frame: Dict[str, Any], src: Address) -> Unsolicited:
        return (str(frame.get("op")), frame.get("b") or {}, src)

    def request(
        self,
        addr: Address,
        op: str,
        body: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Send ``op`` to ``addr``; returns the response body or raises
        :class:`ControlError` after the retry budget is spent."""
        rid = self._next_rid
        self._next_rid = rid + 1
        data = encode_frame(ctl_frame(rid, op, body))
        per_try = timeout if timeout is not None else self.timeout
        for _ in range(self.retries + 1):
            self._sock.sendto(data, addr)
            # One deadline per try: unrelated datagrams (stale
            # responses, other peers' pushes) must not extend it.
            for frame, src in self._frames(time.monotonic() + per_try):
                if frame.get("k") == RSP and frame.get("r") == rid:
                    return frame.get("b") or {}
                if frame.get("k") == CTL:
                    self._inbox.append(self._unsolicited(frame, src))
                # Else a stale response to an earlier (retried)
                # request: keep listening within this try's window.
        raise ControlError(f"no response to {op!r} from {addr}")

    def try_request(
        self,
        addr: Address,
        op: str,
        body: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Optional[Dict[str, Any]]:
        """Like :meth:`request` but returns ``None`` instead of raising."""
        try:
            return self.request(addr, op, body, timeout=timeout)
        except ControlError:
            return None

    def wait(self, timeout: float) -> Optional[Unsolicited]:
        """The next unsolicited ``c``-frame as ``(op, body, source)``:
        from the inbox if one arrived during a :meth:`request`, else
        off the socket within ``timeout`` seconds; ``None`` on timeout.
        Nothing is sent back -- the frame's meaning is the caller's."""
        if self._inbox:
            return self._inbox.popleft()
        for frame, src in self._frames(time.monotonic() + timeout):
            if frame.get("k") == CTL:
                return self._unsolicited(frame, src)
        return None


__all__ = [
    "ControlClient",
    "ControlError",
    "ControlHandler",
    "ControlServer",
    "MALFORMED",
    "MAX_INBOX",
    "POLL_TIMEOUT",
    "READY_PREFIX",
    "control_reply",
    "parse_ready_line",
    "ready_line",
    "serve_control_datagram",
]
