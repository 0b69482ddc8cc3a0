"""Reliable message delivery over a runtime.

The transport is runtime-agnostic: it asks its
:class:`~repro.runtime.interface.Runtime` for the clock and for
deferred delivery (``schedule``), never for anything
simulator-specific.  Under the virtual-time runtime this is exactly
the pre-refactor discrete-event delivery; under the asyncio runtime
the same code delivers over wall-clock timers.

:class:`TransportBase` is the part the UDP
:class:`~repro.net.datagram.DatagramTransport` shares with
:class:`Transport`: accounting, ``drop_filter`` and the one causal
trace path, so the two transports differ only in their wire.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.ids.digits import NodeId
from repro.network.message import Message
from repro.network.stats import MessageStats
from repro.obs.tracer import Tracer
from repro.runtime.interface import Runtime
from repro.topology.attachment import LatencyModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.node import NetworkNode


class UnknownDestinationError(RuntimeError):
    """A lookup or unregistration named a node not registered with the
    transport.  Sends never raise it: a send to such a node is a
    drop."""


class TransportBase:
    """What the in-memory and the datagram transport share: message
    accounting, the ``drop_filter`` hook, and the causal trace path.

    With a live tracer every send is stamped (``msg_id`` /
    ``parent_id`` / ``trace_id``) and written as one ``message.send``
    event, every drop as one ``message.drop``, and every delivery as
    one ``message.deliver`` whose message is the causal parent of
    everything its handler sends.  Only the id format differs: ints in
    memory, ``"<node>#<counter:08d>"`` strings once a subclass sets
    ``_stamp_prefix`` (cluster-unique without coordination, and one
    node's ids sort in its send order).
    """

    #: Prefix that turns stamped ids into strings; ``None`` keeps ints.
    _stamp_prefix: Optional[str] = None

    def __init__(
        self,
        runtime: Runtime,
        stats: Optional[MessageStats],
        tracer: Optional[Tracer],
    ):
        self.runtime = runtime
        self.stats = stats if stats is not None else MessageStats()
        # A disabled tracer (NullTracer) is normalized to None so the
        # hot send path stays the exact pre-instrumentation code.
        self._tracer = tracer if tracer is not None and tracer.enabled else None
        #: Fault-injection hook: when set, a message for which
        #: ``drop_filter(message, dst)`` is true is dropped instead of
        #: sent, accounted through the same :meth:`MessageStats.on_drop`
        #: / ``message.drop`` trace path as a send to a dead node.
        #: Used by tests and audits to inject message loss.
        self.drop_filter: Optional[Callable[[Message, NodeId], bool]] = None
        # Causal-stamping state (tracing only): the message currently
        # being delivered, and the next msg_id to hand out.
        self._cause: Optional[Message] = None
        self._next_msg_id = 1

    @property
    def tracer(self) -> Optional[Tracer]:
        """The live tracer, or ``None`` when tracing is off."""
        return self._tracer

    def _stamp(self, message: Message) -> None:
        """Assign ``message`` its causal identity (tracing path only).

        The parent is whatever message is currently being delivered:
        a send from inside a handler is *caused by* the handled
        message, a send from outside any handler (``begin_join``, a
        recovery timer) roots a new causal tree.  So does a cause with
        no ``msg_id`` (a peer with tracing off sent it).
        """
        number = self._next_msg_id
        self._next_msg_id = number + 1
        prefix = self._stamp_prefix
        msg_id = number if prefix is None else f"{prefix}#{number:08d}"
        message.msg_id = msg_id
        cause = self._cause
        if cause is None or cause.msg_id is None:
            message.trace_id = msg_id
        else:
            message.parent_id = cause.msg_id
            message.trace_id = (
                cause.trace_id if cause.trace_id is not None else cause.msg_id
            )

    def _trace_send(
        self, dst: NodeId, message: Message, latency: Optional[float] = None
    ) -> None:
        """Stamp ``message`` and write its ``message.send`` event (with
        the model ``latency`` where the transport knows it)."""
        self._stamp(message)
        attrs = {
            "type": message.type_name,
            "src": str(message.sender),
            "dst": str(dst),
            "bytes": message.size_bytes(),
        }
        if latency is not None:
            attrs["latency"] = latency
        self._tracer.event(
            "message.send",
            self.runtime.now,
            **attrs,
            msg=message.msg_id,
            parent=message.parent_id,
            trace=message.trace_id,
        )

    def _drop(self, dst: NodeId, message: Message, sent: bool = False) -> None:
        """Account a dropped message (stats counter plus, when tracing,
        a ``message.drop`` event).  A message not ``sent`` yet is
        stamped here; one that was keeps its ``message.send`` ids."""
        self.stats.on_drop(message)
        if self._tracer is not None:
            if not sent:
                self._stamp(message)
            self._tracer.event(
                "message.drop",
                self.runtime.now,
                type=message.type_name,
                src=str(message.sender),
                dst=str(dst),
                msg=message.msg_id,
                parent=message.parent_id,
                trace=message.trace_id,
            )

    def _receive_traced(self, node: "NetworkNode", message: Message) -> None:
        """Deliver ``message`` to ``node`` under tracing: a
        ``message.deliver`` event, then the handler, with the message
        as the causal parent of everything the handler sends."""
        self._tracer.event(
            "message.deliver",
            self.runtime.now,
            type=message.type_name,
            src=str(message.sender),
            dst=str(node.node_id),
            msg=message.msg_id,
        )
        self._cause = message
        try:
            node.receive(message)
        finally:
            self._cause = None


class Transport(TransportBase):
    """Delivers messages between registered nodes with model latency.

    Delivery is reliable and per-message delays are independent, so
    messages may be reordered -- the protocol must tolerate that, and
    the correctness proofs do not assume FIFO channels.
    """

    def __init__(
        self,
        runtime: Runtime,
        latency_model: LatencyModel,
        stats: Optional[MessageStats] = None,
        tracer: Optional[Tracer] = None,
    ):
        super().__init__(runtime, stats, tracer)
        # Deliveries are never cancelled: the runtime's fire-and-forget
        # path, bound once (no per-message handle).
        self._schedule_fire = runtime.schedule_fire
        self.latency_model = latency_model
        # Bound once: stats is never swapped after construction, and
        # on_send runs once per message in the whole simulation.
        self._on_send = self.stats.on_send
        # The registry, keyed by packed ID: one network shares one ID
        # space, so the packed forms are unique, and an int key hashes
        # in C where a NodeId key pays a Python ``__hash__`` per send.
        self._nodes: Dict[int, "NetworkNode"] = {}
        # Pairwise latency memo, only for models whose (src, dst) delay
        # is a pure function of the pair (topology shortest paths,
        # constant delay).  Jittered models draw per message and must
        # not be memoized.
        self._latency_memo: Optional[Dict[tuple, float]] = (
            {} if getattr(latency_model, "deterministic_pairs", False)
            else None
        )

    def register(self, node: "NetworkNode") -> None:
        """Register ``node`` as reachable at its ID."""
        key = node.node_id._packed
        if key in self._nodes:
            raise ValueError(f"node {node.node_id} already registered")
        self._nodes[key] = node

    def unregister(self, node_id: NodeId) -> None:
        """Remove a departed node; later sends to it are dropped.
        Unregistering a node that is not registered raises."""
        if self._nodes.pop(node_id._packed, None) is None:
            raise UnknownDestinationError(str(node_id))

    def clear(self) -> None:
        """Unregister every node (the owning network's teardown: the
        registry is the transport's only reference to its nodes)."""
        self._nodes.clear()

    def node(self, node_id: NodeId) -> "NetworkNode":
        """The registered node object for ``node_id`` (raises if unknown)."""
        try:
            return self._nodes[node_id._packed]
        except KeyError:
            raise UnknownDestinationError(str(node_id)) from None

    def knows(self, node_id: NodeId) -> bool:
        """True iff ``node_id`` is currently registered."""
        return node_id._packed in self._nodes

    @property
    def node_ids(self) -> List[NodeId]:
        """Registered node IDs, in registration order (a new list)."""
        return [node.node_id for node in self._nodes.values()]

    def send(self, dst: NodeId, message: Message) -> bool:
        """Send ``message`` to ``dst``; the sender is read off the
        message.  Delivery is scheduled at ``now + latency(src, dst)``.

        The one send path: one registry lookup, the drop filter,
        accounting, then the delivery is scheduled.  A ``dst`` not
        registered (crashed or departed) and a message
        :attr:`drop_filter` refuses are dropped, accounted as drops.
        Returns whether the message was dispatched."""
        target = self._nodes.get(dst._packed)
        if target is None or (
            self.drop_filter is not None and self.drop_filter(message, dst)
        ):
            self._drop(dst, message)
            return False
        self._on_send(message)
        src = message.sender
        memo = self._latency_memo
        if memo is None:
            delay = self.latency_model.latency(src, dst)
        else:
            # Packed-int pair key, for the same reason as the registry.
            key = (src._packed, dst._packed)
            delay = memo.get(key)
            if delay is None:
                delay = self.latency_model.latency(src, dst)
                memo[key] = delay
        if self._tracer is None:
            self._schedule_fire(delay, target.receive, message)
        else:
            self._trace_send(dst, message, delay)
            self.runtime.schedule(
                delay, lambda msg: self._receive_traced(target, msg), message
            )
        return True
