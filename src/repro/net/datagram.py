"""UDP datagram transport: the protocol stack over real sockets.

This is the real-wire sibling of the in-memory
:class:`~repro.network.transport.Transport`.  It exposes the same
surface the protocol stack uses (``send`` / ``register`` /
``unregister`` / ``runtime`` / ``stats`` / ``drop_filter``), so a
:class:`~repro.protocol.node.ProtocolNode` constructed over it runs
unmodified -- but every message now crosses a kernel socket as one UDP
datagram in the :mod:`repro.net.wire` frame format.

Differences from the in-memory transport, all forced by real networks:

* **One node per transport.**  A process hosts one protocol node; the
  rest of the membership is reachable only by address: seeded
  statically (cluster harness), learned from the source address of
  every received protocol message (nodes send from their bound
  socket), or resolved through a rendezvous service (see
  :mod:`repro.net.rendezvous`), queueing sends until it answers.
* **Loss is real, so reliability is explicit.**  The paper's protocol
  (and its proofs) assume reliable channels; UDP gives none.  Every
  protocol datagram carries a per-sender sequence number and is
  retransmitted on a runtime timer until acked (bounded retries,
  exponential backoff); receivers ack every copy and suppress
  duplicates by ``(sender, seq)``.  The retransmission timer *is* the
  wire-level recovery timer the fault-injection acceptance tests
  exercise: drop a ``JoinNotiMsg`` and the timer re-delivers it.
  Control requests ride the same retry machine under their own policy
  (fixed timeout, no fault injection).
* **Datagram ceiling.**  Frames are refused past
  :data:`~repro.runtime.codec.MAX_DATAGRAM_BYTES` -- a table snapshot
  that does not fit is a protocol-sizing bug surfaced loudly, not a
  silent kernel truncation.

Handler atomicity is preserved: datagram callbacks never invoke
protocol handlers directly; they schedule delivery on the
:class:`~repro.runtime.realtime.AsyncioRuntime`'s event queue,
serialized with every timer the protocol arms.

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
from typing import (
    Callable, Dict, List, NamedTuple, Optional, Set, Tuple, TYPE_CHECKING,
)

from repro.ids.digits import NodeId
from repro.network.message import Message
from repro.network.stats import MessageStats
from repro.network.transport import TransportBase
from repro.net.control import MALFORMED, ControlHandler, control_reply
from repro.net.faults import FaultInjector, FaultPlan
from repro.net.wire import (
    ACK,
    Address,
    CTL,
    MSG,
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


class _Policy(NamedTuple):
    """How one kind of outstanding datagram is retried: ``timeout``
    doubles per retry up to ``backoff_cap`` times, the record is given
    up after ``max_retries`` retransmissions, and ``faults`` says
    whether the transport's fault injector applies."""

    timeout: float
    backoff_cap: int
    max_retries: int
    faults: bool


MESSAGE_POLICY = _Policy(RETRANSMIT_TIMEOUT, 8, MAX_RETRIES, True)
#: Control requests bypass the fault injector: control traffic is the
#: harness's measurement channel, not the system under test.
CONTROL_POLICY = _Policy(CONTROL_TIMEOUT, 1, MAX_CONTROL_RETRIES, False)


class _Outstanding:
    """One datagram awaiting its answer: a protocol message its ack
    (``message`` set, ``dst`` a node id, ``key`` its seq) or a control
    request its response (``dst`` an address, ``key`` its rid).
    ``on_done(record, frame)`` runs once, with the answering frame or,
    once the retries run out, ``None``.  ``sent_wall`` (loop time of
    the first transmission) is kept only with a metrics registry."""

    __slots__ = (
        "key", "dst", "data", "policy", "on_done", "message", "retries",
        "timer", "sent_wall",
    )

    def __init__(self, key: int, dst, data: bytes, policy: _Policy,
                 on_done: Callable[["_Outstanding", Optional[dict]], None],
                 message: Optional[Message] = None):
        self.key = key
        self.dst = dst
        self.data = data
        self.policy = policy
        self.on_done = on_done
        self.message = message
        self.retries = 0
        self.timer = None
        self.sent_wall: Optional[float] = None


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
    lives on its private loop and deliveries go through its event queue.
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
        #: Control-protocol server hook (None: control frames ignored).
        self.on_control: Optional[ControlHandler] = None
        self.peers: Dict[NodeId, Address] = {}
        #: The wire's one tally (``status`` reports it, the ``net_*``
        #: metrics read it).  ``wire_bytes_*`` count bytes handed to /
        #: read off the socket (the abstract Section 6.2 sizes live in
        #: ``stats.total_bytes``).
        self.counters: Dict[str, int] = dict.fromkeys((
            "datagrams_sent", "datagrams_received", "wire_bytes_sent",
            "wire_bytes_received", "retransmits", "gave_up",
            "duplicates_suppressed", "malformed", "acks_received",
            "control_requests", "control_timeouts", "resolve_failures",
            "socket_errors",
        ), 0)
        self._node: Optional["NetworkNode"] = None
        self._local_id: Optional[NodeId] = None
        self._endpoint = None
        self._next_seq = 1
        self._next_rid = 1
        #: Outstanding protocol datagrams by seq, control requests by rid.
        self._unacked: Dict[int, _Outstanding] = {}
        self._pending_ctl: Dict[int, _Outstanding] = {}
        self._seen: Dict[NodeId, Set[int]] = {}
        # Destinations being resolved through the rendezvous: when the
        # first lookup started (loop time) and the sends queued on it.
        self._resolving: Dict[NodeId, Tuple[float, List[_Outstanding]]] = {}
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
        self._endpoint, _ = self.runtime.loop.run_until_complete(
            self.runtime.loop.create_datagram_endpoint(
                lambda: _SocketAdapter(self), local_addr=self.local_addr
            )
        )
        self.local_addr = self._endpoint.get_extra_info("sockname")[:2]
        return self.local_addr

    def close(self) -> None:
        """Drop all in-flight state and close the socket."""
        self._closed = True
        for record in [*self._unacked.values(), *self._pending_ctl.values()]:
            if record.timer is not None:
                record.timer.cancel()
                record.timer = None
        self._unacked.clear()
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
        for record in queued:
            self._transmit(record)

    # -- send path (transport contract) ----------------------------------

    @property
    def unacked_count(self) -> int:
        """Protocol datagrams currently in flight (sent, not acked)."""
        return len(self._unacked)

    def send(self, dst: NodeId, message: Message) -> bool:
        """Send ``message`` to ``dst`` reliably (acked, retransmitted).
        A send to a dead peer exhausts its retries and is accounted as
        a drop; returns False only when :attr:`drop_filter` dropped the
        message."""
        if self.drop_filter is not None and self.drop_filter(message, dst):
            self._drop(dst, message)
            return False
        self.stats.on_send(message)
        if self._tracer is not None:
            self._trace_send(dst, message)
        if dst == self._local_id:
            # Self-delivery short-circuits the socket but still goes
            # through the event queue for handler atomicity.
            self.runtime.schedule_fire(0.0, self._deliver, message)
            return True
        seq = self._next_seq
        self._next_seq = seq + 1
        record = _Outstanding(
            seq, dst, encode_frame(msg_frame(seq, message)), MESSAGE_POLICY,
            self._message_done, message,
        )
        self._unacked[seq] = record
        self._transmit(record)
        return True

    # -- the retry machine ------------------------------------------------

    def _transmit(self, record: _Outstanding) -> None:
        """Send ``record``'s datagram (again) and arm its timeout."""
        message = record.message
        if message is None:
            addr = record.dst
        else:
            addr = self.peers.get(record.dst)
            if addr is None:  # unknown: ask the rendezvous, send on reply
                self._queue_unresolved(record.dst, record)
                return
            if record.sent_wall is None and self.metrics is not None:
                record.sent_wall = self.runtime.loop.time()
        policy = record.policy
        if policy.faults and self.faults is not None:
            self._send_raw(record.data, addr, self.faults, message.type_name)
        elif self._endpoint is not None:  # no faults apply: write it here
            self.counters["datagrams_sent"] += 1
            self.counters["wire_bytes_sent"] += len(record.data)
            self._endpoint.sendto(record.data, addr)
        record.timer = self.runtime.schedule(
            policy.timeout * min(2 ** record.retries, policy.backoff_cap),
            self._on_timeout, record,
        )

    def _on_timeout(self, record: _Outstanding) -> None:
        """Retransmit ``record``, or give it up: its retries are spent."""
        record.timer = None
        record.retries += 1
        message = record.message
        if record.retries > record.policy.max_retries:
            (self._unacked if message else self._pending_ctl).pop(record.key)
            record.on_done(record, None)
            return
        if message is not None:
            self.counters["retransmits"] += 1
            self.stats.on_retransmit(message)
        self._transmit(record)

    def _message_done(self, record: _Outstanding, ack: Optional[dict]):
        """A protocol datagram was acked, or (``ack`` None) given up."""
        message = record.message
        if ack is None:
            self.counters["gave_up"] += 1
            self.stats.on_drop(message)
            if self._tracer is not None:
                # Not ``message.drop``: an earlier copy may have been
                # handled (only its acks lost), and a drop record could
                # fabricate causal-order violations.
                self._tracer.event(
                    "message.gave_up",
                    self.runtime.now,
                    type=message.type_name,
                    dst=str(record.dst),
                    msg=message.msg_id,
                    retries=record.retries - 1,
                )
            return
        self.counters["acks_received"] += 1
        if record.retries == 0 and record.sent_wall is not None:
            # Karn's rule: a retransmitted datagram's ack is ambiguous
            # (which copy does it answer?), so only first-transmission
            # acks contribute RTT samples.
            self.metrics.histogram(
                "net_ack_rtt_ms", peer=str(record.dst)
            ).observe((self.runtime.loop.time() - record.sent_wall) * 1000.0)

    def _send_raw(self, data: bytes, addr: Address,
                  faults: Optional[FaultInjector],
                  type_name: Optional[str] = None) -> None:
        """Hand ``data`` to the socket, through ``faults`` when given."""
        if self._endpoint is None:
            return
        delays = (0.0,) if faults is None else faults.transmissions(type_name)
        for delay in delays:
            self.counters["datagrams_sent"] += 1
            self.counters["wire_bytes_sent"] += len(data)
            if delay <= 0.0:
                self._endpoint.sendto(data, addr)
            else:
                self.runtime.schedule_fire(
                    delay, self._sendto_later, (data, addr)
                )

    def _sendto_later(self, datagram: Tuple[bytes, Address]) -> None:
        if self._endpoint is not None:
            self._endpoint.sendto(*datagram)

    # -- resolution -------------------------------------------------------

    def _queue_unresolved(self, dst: NodeId, record: _Outstanding) -> None:
        resolving = self._resolving.get(dst)
        if resolving is not None:
            resolving[1].append(record)
            return
        self._resolving[dst] = (self.runtime.loop.time(), [record])
        self._resolve((dst, 0))

    def _resolve(self, job: Tuple[NodeId, int]) -> None:
        """Ask the rendezvous where ``dst`` listens (``job = (dst, n)``)."""
        dst, attempt = job
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
                self.runtime.schedule_fire(
                    RESOLVE_RETRY_DELAY, self._resolve, (dst, attempt + 1)
                )

        self.control_request(
            self.rendezvous, "resolve", {"id": node_id_to_wire(dst)},
            on_reply,
        )

    def _resolution_failed(self, dst: NodeId) -> None:
        _, queued = self._resolving.pop(dst)
        self.counters["resolve_failures"] += 1
        for record in queued:
            self._unacked.pop(record.key, None)
            # Never transmitted: a true drop (the send record is
            # rewritten as dropped when the forest is rebuilt).
            self._drop(dst, record.message, sent=True)

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
        self.counters["control_requests"] += 1

        def done(record: _Outstanding, frame: Optional[dict]) -> None:
            if frame is None:
                self.counters["control_timeouts"] += 1
            if on_reply is not None:
                on_reply(None if frame is None else frame.get("b") or {})

        record = _Outstanding(
            rid, addr, encode_frame(ctl_frame(rid, op, body)),
            CONTROL_POLICY, done,
        )
        self._pending_ctl[rid] = record
        self._transmit(record)
        return rid

    # -- receive path -----------------------------------------------------

    def _on_datagram(self, data: bytes, addr: Address) -> None:
        self.counters["datagrams_received"] += 1
        self.counters["wire_bytes_received"] += len(data)
        try:
            frame = decode_frame(data)
            kind = frame["k"]
            if kind == MSG:
                self._on_msg_frame(frame, addr)
            elif kind == CTL:
                self._on_ctl_frame(frame, addr)
            else:
                # An answer: an ack ends a protocol datagram's wait, a
                # response (``r``) a control request's.
                record = (
                    self._unacked.pop(frame["s"], None) if kind == ACK
                    else self._pending_ctl.pop(frame["r"], None)
                )
                if record is not None:
                    if record.timer is not None:
                        record.timer.cancel()
                    # The cancel may have been the last pending action:
                    # wake the dispatcher so quiescence is observed.
                    self.runtime.kick()
                    record.on_done(record, frame)
        except MALFORMED:
            # Garbage off the wire must never kill a daemon.
            self.counters["malformed"] += 1

    def _on_msg_frame(self, frame: dict, addr: Address) -> None:
        message = frame_message(frame)
        seq = frame["s"]
        sender = message.sender
        # Every datagram teaches us the sender's listen address (nodes
        # send from their bound socket).
        if sender != self._local_id and self.peers.get(sender) != addr:
            self.add_peer(sender, addr)
        # Ack every copy -- the first ack may have been the lost one.
        self._send_raw(encode_frame(ack_frame(seq)), addr, self.faults)
        seen = self._seen.setdefault(sender, set())
        if seq in seen:
            self.counters["duplicates_suppressed"] += 1
            return
        seen.add(seq)
        if len(seen) > DEDUP_WINDOW:
            for old in sorted(seen)[: DEDUP_WINDOW // 2]:
                seen.discard(old)
        self.runtime.schedule_fire(0.0, self._deliver, message)

    def _deliver(self, message: Message) -> None:
        node = self._node
        if node is None:
            return
        if self._tracer is None:
            node.receive(message)
        else:
            self._receive_traced(node, message)

    def _on_ctl_frame(self, frame: dict, addr: Address) -> None:
        if self.on_control is not None:
            reply = control_reply(frame, self.on_control, addr)
            if reply is not None:
                self._send_raw(reply, addr, None)


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
