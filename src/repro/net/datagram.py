"""UDP datagram transport: the protocol stack over real sockets.

This is the real-wire sibling of the in-memory
:class:`~repro.network.transport.Transport`.  It exposes the same
surface the protocol stack uses (``send`` / ``send_lossy`` /
``register`` / ``unregister`` / ``runtime`` / ``stats`` /
``drop_filter``), so a :class:`~repro.protocol.node.ProtocolNode`
constructed over it runs unmodified -- but every message now crosses a
kernel socket as one UDP datagram in the
:mod:`repro.net.wire` frame format.

Differences from the in-memory transport, all forced by real networks:

* **One node per transport.**  A process hosts one protocol node; the
  rest of the membership is reachable only by address.  Peer addresses
  are learned three ways: seeded statically (cluster harness), learned
  from the source address of incoming datagrams (every received
  protocol message teaches us where its sender listens, since nodes
  send from their bound socket), or resolved through a rendezvous
  service (see :mod:`repro.net.rendezvous`) with queue-and-retry for
  IDs nobody has introduced yet.
* **Loss is real, so reliability is explicit.**  The paper's protocol
  (and its proofs) assume reliable channels; UDP gives none.  Every
  protocol datagram carries a per-sender sequence number and is
  retransmitted on a runtime timer until acked (bounded retries,
  exponential backoff); receivers ack every copy and suppress
  duplicates by ``(sender, seq)``.  The retransmission timer *is* the
  wire-level recovery timer the fault-injection acceptance tests
  exercise: drop a ``JoinNotiMsg`` on the floor and the timer fires
  and re-delivers it.
* **Datagram ceiling.**  Frames are refused past
  :data:`~repro.runtime.codec.MAX_DATAGRAM_BYTES` -- a table snapshot
  that does not fit is a protocol-sizing bug surfaced loudly, not a
  silent kernel truncation.

Handler atomicity is preserved: datagram callbacks never invoke
protocol handlers directly; they schedule delivery through the
:class:`~repro.runtime.realtime.AsyncioRuntime` mailbox, serialized
with every timer the protocol arms.

With a live :class:`~repro.obs.tracer.Tracer` the transport writes
the in-memory transport's trace (:class:`~repro.network.transport.
TransportBase`): the causal ids cross the wire inside the message
envelope, so a :class:`~repro.obs.causality.CausalForest` built from
the *merged* traces of many daemons reconstructs the same join trees
the simulator produces.  An optional
:class:`~repro.obs.metrics.MetricsRegistry` additionally collects what
only a real wire can show: per-peer ack RTT (first transmissions only
-- Karn's rule), rendezvous resolve latency, and ``net_*`` readings of
:attr:`DatagramTransport.counters` published when the registry is read.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.ids.digits import NodeId
from repro.network.message import Message
from repro.network.stats import MessageStats
from repro.network.transport import TransportBase
from repro.net.control import MALFORMED, control_reply
from repro.net.faults import FaultInjector, FaultPlan
from repro.net.wire import (
    ACK,
    Address,
    CTL,
    MSG,
    RSP,
    ack_frame,
    ctl_frame,
    decode_frame,
    encode_frame,
    frame_message,
    msg_frame,
    node_id_to_wire,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.runtime.realtime import AsyncioRuntime

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.node import NetworkNode

#: Per-sender duplicate-suppression window (sequence numbers kept).
DEDUP_WINDOW = 4096

# Retry policy, in protocol time units (scaled by the runtime's
# ``time_scale``, so it behaves the same at any wall-clock scale).
#: First retransmission timeout; doubles per retry, capped at 8x.
RETRANSMIT_TIMEOUT = 40.0
#: Retransmissions before a protocol datagram is given up.
MAX_RETRIES = 10
#: Control-request timeout (fixed, no backoff) and its retries.
CONTROL_TIMEOUT = 60.0
MAX_CONTROL_RETRIES = 5
#: Pause between rendezvous ``resolve`` attempts, and their number.
RESOLVE_RETRY_DELAY = 50.0
MAX_RESOLVE_ATTEMPTS = 12

#: ``net_*`` metric -> the :attr:`DatagramTransport.counters` key it reads.
COUNTER_METRICS = (
    ("net_retransmits", "retransmits"),
    ("net_dedup_hits", "duplicates_suppressed"),
    ("net_gave_up", "gave_up"),
)


class _Pending:
    """One protocol datagram awaiting acknowledgment."""

    __slots__ = (
        "seq", "dst", "message", "data", "retries", "timer", "sent_wall"
    )

    def __init__(self, seq: int, dst: NodeId, message: Message, data: bytes):
        self.seq = seq
        self.dst = dst
        self.message = message
        self.data = data
        self.retries = 0
        self.timer = None
        #: Wall-clock (loop) time of the first transmission; the RTT
        #: sample base.  ``None`` until the datagram first hits the wire.
        self.sent_wall: Optional[float] = None


class _PendingControl:
    """One control request awaiting its response."""

    __slots__ = ("rid", "addr", "data", "on_reply", "retries", "timer")

    def __init__(self, rid: int, addr: Address, data: bytes,
                 on_reply: Optional[Callable[[Optional[dict]], None]]):
        self.rid = rid
        self.addr = addr
        self.data = data
        self.on_reply = on_reply
        self.retries = 0
        self.timer = None


class _SocketAdapter(asyncio.DatagramProtocol):
    """Glue between the asyncio datagram endpoint and the transport."""

    def __init__(self, owner: "DatagramTransport"):
        self.owner = owner

    def datagram_received(self, data: bytes, addr) -> None:
        self.owner._on_datagram(data, (addr[0], addr[1]))

    def error_received(self, exc) -> None:  # pragma: no cover - OS-dependent
        self.owner.counters["socket_errors"] += 1


class DatagramTransport(TransportBase):
    """Reliable protocol messaging over one UDP socket.

    ``runtime`` must be an :class:`AsyncioRuntime`: the socket endpoint
    lives on its private loop and deliveries drain through its mailbox.
    ``metrics``, when given, belongs to this transport alone: its
    ``net_*`` readings are this transport's counters.
    """

    def __init__(
        self,
        runtime: AsyncioRuntime,
        local_addr: Address,
        stats: Optional[MessageStats] = None,
        faults: Optional[FaultPlan] = None,
        rendezvous: Optional[Address] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        super().__init__(runtime, stats, tracer)
        self.local_addr = local_addr
        self.rendezvous = rendezvous
        self.metrics = metrics
        self.faults = FaultInjector(faults) if faults is not None else None
        #: Control-protocol server hook: ``on_control(op, body, addr)``
        #: returns a response body dict (or None for no response).
        self.on_control: Optional[
            Callable[[str, dict, Address], Optional[dict]]
        ] = None
        self.peers: Dict[NodeId, Address] = {}
        #: The wire's one tally (``status`` reports it, the ``net_*``
        #: metrics read it).
        self.counters: Dict[str, int] = {
            "datagrams_sent": 0,
            "datagrams_received": 0,
            # Bytes handed to / read off the socket (the abstract
            # Section 6.2 sizes live in ``stats.total_bytes``).
            "wire_bytes_sent": 0,
            "wire_bytes_received": 0,
            "retransmits": 0,
            "gave_up": 0,
            "duplicates_suppressed": 0,
            "malformed": 0,
            "acks_received": 0,
            "control_requests": 0,
            "control_timeouts": 0,
            "resolve_failures": 0,
            "socket_errors": 0,
        }
        self._node: Optional["NetworkNode"] = None
        self._local_id: Optional[NodeId] = None
        self._endpoint = None
        self._next_seq = 1
        self._next_rid = 1
        self._unacked: Dict[int, _Pending] = {}
        self._pending_ctl: Dict[int, _PendingControl] = {}
        self._seen: Dict[NodeId, Set[int]] = {}
        # Destinations being resolved through the rendezvous: when the
        # first lookup started (loop time) and the sends queued on it.
        self._resolving: Dict[NodeId, Tuple[float, List[_Pending]]] = {}
        self._closed = False
        if metrics is not None:
            # Published once now, so the instruments register in a
            # stable order, then again on every read.
            self._publish(metrics)
            metrics.add_collector(self._publish)
            metrics.histogram("net_resolve_ms")

    def _publish(self, registry: MetricsRegistry) -> None:
        """Collector: copy the wire tally into the ``net_*`` metrics."""
        registry.gauge("net_unacked_depth").set(len(self._unacked))
        for name, key in COUNTER_METRICS:
            registry.counter(name).value = self.counters[key]

    # -- lifecycle ------------------------------------------------------

    def open(self) -> Address:
        """Bind the socket on the runtime's loop; returns the bound
        address (resolving port 0 to the kernel-assigned port)."""
        loop = self.runtime.loop

        async def _bind():
            return await loop.create_datagram_endpoint(
                lambda: _SocketAdapter(self), local_addr=self.local_addr
            )

        endpoint, _ = loop.run_until_complete(_bind())
        self._endpoint = endpoint
        sockname = endpoint.get_extra_info("sockname")
        self.local_addr = (sockname[0], sockname[1])
        return self.local_addr

    def close(self) -> None:
        """Drop all in-flight state and close the socket."""
        self._closed = True
        for pending in list(self._unacked.values()):
            if pending.timer is not None:
                pending.timer.cancel()
        self._unacked.clear()
        for ctl in list(self._pending_ctl.values()):
            if ctl.timer is not None:
                ctl.timer.cancel()
        self._pending_ctl.clear()
        self._resolving.clear()
        if self._endpoint is not None:
            self._endpoint.close()
            self._endpoint = None

    # -- membership (transport contract) --------------------------------

    def register(self, node: "NetworkNode") -> None:
        """Attach the single local protocol node."""
        if self._node is not None:
            raise ValueError(
                f"transport already hosts {self._local_id}; one node per "
                f"datagram transport"
            )
        self._node = node
        self._local_id = node.node_id
        self._stamp_prefix = str(node.node_id)

    def unregister(self, node_id: NodeId) -> None:
        """Detach the local node (it departed); later datagrams for it
        are dropped on the floor like any dead UDP endpoint's."""
        if node_id == self._local_id:
            self._node = None
        else:
            self.peers.pop(node_id, None)

    def knows(self, node_id: NodeId) -> bool:
        """True iff ``node_id`` is the local node or has a known address."""
        return node_id == self._local_id or node_id in self.peers

    def add_peer(self, node_id: NodeId, addr: Address) -> None:
        """Statically seed (or refresh) a peer's address, flushing any
        messages queued awaiting its resolution."""
        self.peers[node_id] = addr
        resolving = self._resolving.pop(node_id, None)
        if resolving is None:
            return
        started, queued = resolving
        if self.metrics is not None:
            self.metrics.histogram("net_resolve_ms").observe(
                (self.runtime.loop.time() - started) * 1000.0
            )
        for pending in queued:
            self._transmit(pending)

    # -- send path (transport contract) ----------------------------------

    def send(self, dst: NodeId, message: Message) -> None:
        """Send ``message`` to ``dst`` reliably (acked, retransmitted)."""
        self._dispatch(dst, message)

    def send_lossy(self, dst: NodeId, message: Message) -> bool:
        """Like :meth:`send`; over UDP the lossy path *is* the normal
        path (probes to dead peers simply exhaust retries and are
        accounted as drops).  Returns whether a send was attempted:
        False only when :attr:`drop_filter` dropped the message."""
        return self._dispatch(dst, message)

    @property
    def unacked_count(self) -> int:
        """Protocol datagrams currently in flight (sent, not acked)."""
        return len(self._unacked)

    def _dispatch(self, dst: NodeId, message: Message) -> bool:
        if self.drop_filter is not None and self.drop_filter(message, dst):
            self._drop(dst, message)
            return False
        self.stats.on_send(message)
        if self._tracer is not None:
            self._trace_send(dst, message)
        if dst == self._local_id:
            # Self-delivery short-circuits the socket but still goes
            # through the mailbox for handler atomicity.
            self.runtime.schedule(0.0, self._deliver, message)
            return True
        seq = self._next_seq
        self._next_seq = seq + 1
        data = encode_frame(msg_frame(seq, message))
        pending = _Pending(seq, dst, message, data)
        self._unacked[seq] = pending
        if dst in self.peers:
            self._transmit(pending)
        else:
            self._queue_unresolved(dst, pending)
        return True

    def _transmit(self, pending: _Pending) -> None:
        addr = self.peers.get(pending.dst)
        if addr is None:  # resolution raced a peer removal; retry later
            self._queue_unresolved(pending.dst, pending)
            return
        if pending.sent_wall is None:
            pending.sent_wall = self.runtime.loop.time()
        self._send_raw(pending.data, addr, pending.message.type_name)
        backoff = RETRANSMIT_TIMEOUT * min(2 ** pending.retries, 8)
        pending.timer = self.runtime.schedule(
            backoff, self._on_retransmit, pending.seq
        )

    def _send_raw(
        self, data: bytes, addr: Address, type_name: Optional[str]
    ) -> None:
        """Hand ``data`` to the socket, through the fault injector."""
        if self._endpoint is None:
            return
        if self.faults is None:
            self.counters["datagrams_sent"] += 1
            self.counters["wire_bytes_sent"] += len(data)
            self._endpoint.sendto(data, addr)
            return
        for delay in self.faults.transmissions(type_name):
            self.counters["datagrams_sent"] += 1
            self.counters["wire_bytes_sent"] += len(data)
            if delay <= 0.0:
                self._endpoint.sendto(data, addr)
            else:
                self.runtime.schedule(
                    delay, self._sendto_later, (data, addr)
                )

    def _sendto_later(self, payload) -> None:
        data, addr = payload
        if self._endpoint is not None:
            self._endpoint.sendto(data, addr)

    def _on_retransmit(self, seq: int) -> None:
        pending = self._unacked.get(seq)
        if pending is None:
            return
        pending.timer = None
        pending.retries += 1
        if pending.retries > MAX_RETRIES:
            del self._unacked[seq]
            self.counters["gave_up"] += 1
            self.stats.on_drop(pending.message)
            if self._tracer is not None:
                # Not ``message.drop``: the earlier transmissions may
                # have been handled (only the acks lost), so marking
                # the record dropped could fabricate causal-order
                # violations.  A distinct event keeps the evidence
                # without rewriting the send record.
                self._tracer.event(
                    "message.gave_up",
                    self.runtime.now,
                    type=pending.message.type_name,
                    dst=str(pending.dst),
                    msg=pending.message.msg_id,
                    retries=pending.retries - 1,
                )
            return
        self.counters["retransmits"] += 1
        self.stats.on_retransmit(pending.message)
        self._transmit(pending)

    # -- resolution -------------------------------------------------------

    def _queue_unresolved(self, dst: NodeId, pending: _Pending) -> None:
        resolving = self._resolving.get(dst)
        if resolving is not None:
            resolving[1].append(pending)
            return
        self._resolving[dst] = (self.runtime.loop.time(), [pending])
        self._resolve(dst, 0)

    def _resolve(self, dst: NodeId, attempt: int) -> None:
        if dst in self.peers or dst not in self._resolving:
            return
        if self.rendezvous is None or attempt >= MAX_RESOLVE_ATTEMPTS:
            self._resolution_failed(dst)
            return

        def on_reply(body: Optional[dict]) -> None:
            if dst in self.peers:
                return
            addr = body.get("addr") if body else None
            if addr:
                self.add_peer(dst, (addr[0], addr[1]))
            else:
                self.runtime.schedule(
                    RESOLVE_RETRY_DELAY, self._retry_resolve,
                    (dst, attempt + 1),
                )

        self.control_request(
            self.rendezvous, "resolve", {"id": node_id_to_wire(dst)},
            on_reply,
        )

    def _retry_resolve(self, payload) -> None:
        dst, attempt = payload
        self._resolve(dst, attempt)

    def _resolution_failed(self, dst: NodeId) -> None:
        _, queued = self._resolving.pop(dst)
        self.counters["resolve_failures"] += 1
        for pending in queued:
            self._unacked.pop(pending.seq, None)
            # Never transmitted: a true drop (the send record is
            # rewritten as dropped when the forest is rebuilt).
            self._drop(dst, pending.message, sent=True)

    # -- control protocol -------------------------------------------------

    def control_request(
        self,
        addr: Address,
        op: str,
        body: Optional[dict] = None,
        on_reply: Optional[Callable[[Optional[dict]], None]] = None,
    ) -> int:
        """Send a control request; ``on_reply`` gets the response body,
        or ``None`` after the last retry times out."""
        if self._closed:
            if on_reply is not None:
                on_reply(None)
            return -1
        rid = self._next_rid
        self._next_rid = rid + 1
        data = encode_frame(ctl_frame(rid, op, body))
        ctl = _PendingControl(rid, addr, data, on_reply)
        self._pending_ctl[rid] = ctl
        self.counters["control_requests"] += 1
        self._send_control_raw(data, addr)
        ctl.timer = self.runtime.schedule(
            CONTROL_TIMEOUT, self._on_control_timeout, rid
        )
        return rid

    def _send_control_raw(self, data: bytes, addr: Address) -> None:
        # Control traffic bypasses the fault injector: it is the
        # harness's measurement channel, not the system under test.
        if self._endpoint is not None:
            self.counters["datagrams_sent"] += 1
            self.counters["wire_bytes_sent"] += len(data)
            self._endpoint.sendto(data, addr)

    def _on_control_timeout(self, rid: int) -> None:
        ctl = self._pending_ctl.get(rid)
        if ctl is None:
            return
        ctl.timer = None
        ctl.retries += 1
        if ctl.retries > MAX_CONTROL_RETRIES:
            del self._pending_ctl[rid]
            self.counters["control_timeouts"] += 1
            if ctl.on_reply is not None:
                ctl.on_reply(None)
            return
        self._send_control_raw(ctl.data, ctl.addr)
        ctl.timer = self.runtime.schedule(
            CONTROL_TIMEOUT, self._on_control_timeout, rid
        )

    # -- receive path -----------------------------------------------------

    def _on_datagram(self, data: bytes, addr: Address) -> None:
        self.counters["datagrams_received"] += 1
        self.counters["wire_bytes_received"] += len(data)
        try:
            frame = decode_frame(data)
            kind = frame["k"]
            if kind == MSG:
                self._on_msg_frame(frame, addr)
            elif kind == ACK:
                self._on_ack_frame(frame)
            elif kind == CTL:
                self._on_ctl_frame(frame, addr)
            elif kind == RSP:
                self._on_rsp_frame(frame)
        except MALFORMED:
            # Garbage off the wire must never kill a daemon.
            self.counters["malformed"] += 1

    def _on_msg_frame(self, frame: dict, addr: Address) -> None:
        message = frame_message(frame)
        seq = frame["s"]
        sender = message.sender
        # Every datagram teaches us the sender's listen address (nodes
        # send from their bound socket).
        if sender != self._local_id:
            previous = self.peers.get(sender)
            if previous != addr:
                self.add_peer(sender, addr)
        # Ack every copy -- the first ack may have been the lost one.
        self._send_raw(encode_frame(ack_frame(seq)), addr, None)
        seen = self._seen.setdefault(sender, set())
        if seq in seen:
            self.counters["duplicates_suppressed"] += 1
            return
        seen.add(seq)
        if len(seen) > DEDUP_WINDOW:
            for old in sorted(seen)[: DEDUP_WINDOW // 2]:
                seen.discard(old)
        self.runtime.schedule(0.0, self._deliver, message)

    def _deliver(self, message: Message) -> None:
        node = self._node
        if node is None:
            return
        if self._tracer is None:
            node.receive(message)
        else:
            self._receive_traced(node, message)

    def _on_ack_frame(self, frame: dict) -> None:
        pending = self._unacked.pop(frame["s"], None)
        if pending is None:
            return
        self.counters["acks_received"] += 1
        if pending.timer is not None:
            pending.timer.cancel()
            pending.timer = None
        if (
            self.metrics is not None
            and pending.retries == 0
            and pending.sent_wall is not None
        ):
            # Karn's rule: a retransmitted datagram's ack is ambiguous
            # (which copy does it answer?), so only first-transmission
            # acks contribute RTT samples.
            self.metrics.histogram(
                "net_ack_rtt_ms", peer=str(pending.dst)
            ).observe((self.runtime.loop.time() - pending.sent_wall) * 1000.0)
        # The cancel may have been the last pending action: wake the
        # dispatcher so quiescence is observed.
        self.runtime.kick()

    def _on_ctl_frame(self, frame: dict, addr: Address) -> None:
        handler = self.on_control
        if handler is None:
            return
        reply = control_reply(frame, handler, addr)
        if reply is not None:
            self._send_control_raw(reply, addr)

    def _on_rsp_frame(self, frame: dict) -> None:
        ctl = self._pending_ctl.pop(frame["r"], None)
        if ctl is None:
            return
        if ctl.timer is not None:
            ctl.timer.cancel()
            ctl.timer = None
        if ctl.on_reply is not None:
            ctl.on_reply(frame.get("b") or {})
        self.runtime.kick()


__all__ = [
    "CONTROL_TIMEOUT",
    "DEDUP_WINDOW",
    "DatagramTransport",
    "MAX_CONTROL_RETRIES",
    "MAX_RESOLVE_ATTEMPTS",
    "MAX_RETRIES",
    "RESOLVE_RETRY_DELAY",
    "RETRANSMIT_TIMEOUT",
]
