"""What one acknowledged exchange costs on the UDP wire, in Python calls.

A count gate, not a clock gate: ``sys.setprofile`` counts every Python
``call`` event while a :class:`~repro.net.datagram.DatagramTransport`
sends and completes, against a stub endpoint that counts datagrams
instead of writing a socket (so no kernel and no event-loop turn sits
inside the count).  Two exchanges:

* a protocol datagram sent, then acked: ``send``, then the ack frame
  handed to the transport as the socket would hand it;
* a control request answered: ``control_request``, then its response
  frame.

Frames whose code lives in the standard library's :mod:`asyncio`
(``call_later`` and ``TimerHandle.cancel`` under the runtime's timers)
are left out of the count: their depth changes between CPython
releases, and nothing in this package can change it.  Everything
else -- the transport, the frame codec, ``json``, message accounting,
the runtime's timer objects -- is counted.  The cyclic collector is
off while counting, so no finalizer of another test's garbage lands
in the count; a collection right after it must then find nothing: a
completed exchange is freed by reference counting, so its datagram
bytes and message do not wait in a reference cycle (a record and its
cancelled timer, say) for the collector's next pass.

The bounds are the counts of the transport as it stood before its
two retry machines (one for protocol datagrams, one for control
requests) were merged into one: 32 calls per acked datagram and 20
per answered control request, on CPython 3.11.  The merged machine
must cost no more on either path.

A third count holds the wire's telemetry to its cost: the same acked
datagram on a transport with a live :class:`~repro.obs.tracer.Tracer`
and its own :class:`~repro.obs.metrics.MetricsRegistry` (causal
stamping, a ``message.send`` event, an RTT sample).  It read 44 calls
on CPython 3.11 where it was introduced (28 untraced), and the bound
is that count: telemetry may not grow the wire's per-datagram cost.
"""

import gc
import random
import sys

from repro.ids.idspace import IdSpace
from repro.net.datagram import DatagramTransport
from repro.net.wire import ack_frame, encode_frame, rsp_frame
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.protocol.messages import JoinWaitMsg
from repro.runtime.realtime import AsyncioRuntime

CALLS_PER_ACKED_DATAGRAM = 32
CALLS_PER_ANSWERED_CONTROL = 20
CALLS_PER_TRACED_ACKED_DATAGRAM = 44

#: Exchanges measured (after one warm-up of each, which creates the
#: per-type counters a first send makes).
ROUNDS = 50

PEER = ("127.0.0.1", 9)


class _StubEndpoint:
    """Stands in for the asyncio datagram endpoint."""

    def __init__(self) -> None:
        self.sent = 0

    def sendto(self, data, addr) -> None:
        self.sent += 1

    def close(self) -> None:
        pass


class _Node:
    """The one attribute ``register`` reads off a protocol node."""

    def __init__(self, node_id) -> None:
        self.node_id = node_id


class _CallCounter:
    def __init__(self) -> None:
        self.calls = 0
        #: Objects the collector found unreachable after the count.
        self.cyclic_garbage = 0

    def _profile(self, frame, event, arg) -> None:
        code = frame.f_code
        if (
            event == "call"
            and "asyncio" not in code.co_filename
            and code is not _EXIT
        ):
            self.calls += 1

    def __enter__(self) -> "_CallCounter":
        gc.collect()
        gc.disable()
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)
        self.cyclic_garbage = gc.collect()
        gc.enable()


#: The counter's own exit, which the profiler sees once per count.
_EXIT = _CallCounter.__exit__.__code__


def _transport(runtime, traced=False):
    local, peer = IdSpace(4, 4).random_unique_ids(2, random.Random(3))
    telemetry = (
        dict(tracer=Tracer(), metrics=MetricsRegistry()) if traced else {}
    )
    transport = DatagramTransport(runtime, ("127.0.0.1", 0), **telemetry)
    transport._endpoint = _StubEndpoint()
    transport.register(_Node(local))
    transport.add_peer(peer, PEER)
    return transport, local, peer


def acked_datagrams(traced=False) -> _CallCounter:
    """Count ``ROUNDS`` protocol datagrams sent, then acked (on a
    ``traced`` transport: with a live tracer and metrics)."""
    runtime = AsyncioRuntime(time_scale=0.001)
    try:
        transport, local, peer = _transport(runtime, traced)
        first = transport._next_seq
        messages = [JoinWaitMsg(local) for _ in range(ROUNDS + 1)]
        acks = [
            encode_frame(ack_frame(seq))
            for seq in range(first, first + ROUNDS + 1)
        ]
        transport.send(peer, messages[0])
        transport._on_datagram(acks[0], PEER)
        with _CallCounter() as counter:
            for index in range(1, ROUNDS + 1):
                transport.send(peer, messages[index])
                transport._on_datagram(acks[index], PEER)
        assert transport.counters["acks_received"] == ROUNDS + 1
        assert transport.unacked_count == 0
        assert runtime.pending_events == 0
        transport.close()
        return counter
    finally:
        runtime.close()


def answered_controls() -> _CallCounter:
    """Count ``ROUNDS`` control requests sent, then answered."""
    runtime = AsyncioRuntime(time_scale=0.001)
    try:
        transport, _, _ = _transport(runtime)
        first = transport._next_rid
        replies = []
        responses = [
            encode_frame(rsp_frame(rid, {"ok": True}))
            for rid in range(first, first + ROUNDS + 1)
        ]
        transport.control_request(PEER, "ping", None, replies.append)
        transport._on_datagram(responses[0], PEER)
        with _CallCounter() as counter:
            for index in range(1, ROUNDS + 1):
                transport.control_request(
                    PEER, "ping", None, replies.append
                )
                transport._on_datagram(responses[index], PEER)
        assert replies == [{"ok": True}] * (ROUNDS + 1)
        assert runtime.pending_events == 0
        transport.close()
        return counter
    finally:
        runtime.close()


def test_acked_datagram_path_cost():
    counter = acked_datagrams()
    assert counter.calls / ROUNDS <= CALLS_PER_ACKED_DATAGRAM
    assert counter.cyclic_garbage == 0


def test_traced_acked_datagram_path_cost():
    counter = acked_datagrams(traced=True)
    assert counter.calls / ROUNDS <= CALLS_PER_TRACED_ACKED_DATAGRAM
    assert counter.cyclic_garbage == 0


def test_answered_control_path_cost():
    counter = answered_controls()
    assert counter.calls / ROUNDS <= CALLS_PER_ANSWERED_CONTROL
    assert counter.cyclic_garbage == 0
