"""Base class for network actors.

A :class:`NetworkNode` owns an ID, can send messages through the
transport, and dispatches received messages to handlers by message
type.  Subclasses register handlers with :meth:`handles`.

Nodes read time and set timers through the transport's
:class:`~repro.runtime.interface.Runtime` -- never through a simulator
directly, so the same node code runs under virtual time and wall-clock
runtimes alike.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Type

from repro.ids.digits import NodeId
from repro.network.message import Message
from repro.network.transport import Transport
from repro.runtime.interface import TimerHandle

Handler = Callable[[Message], None]


def _wrap_external(handler: Handler):
    """Adapt a plain ``handler(message)`` callable to the internal
    ``handler(self, message)`` dispatch convention."""

    def dispatch(_node: "NetworkNode", message: Message) -> None:
        handler(message)

    return dispatch


class NetworkNode:
    """An actor addressed by its :class:`NodeId`."""

    #: Handler tables shared per *concrete class*: every instance of a
    #: class registers the same ``self._on_x`` bound methods, so the
    #: table stores the underlying functions once instead of one dict
    #: of bound methods per node (~1 KiB each; a 10⁵-node simulation
    #: would spend >100 MiB on them).  An instance that registers a
    #: non-method handler gets a private copy-on-write table.
    _class_handlers: Dict[type, Dict[Type[Message], Callable]] = {}

    # Slotted so that a subclass declaring its own slots (ProtocolNode,
    # of which a simulation holds one per member) carries no instance
    # dict; subclasses that declare none get theirs as usual.
    __slots__ = (
        "node_id", "transport", "runtime", "_handlers", "_own_handlers",
    )

    def __init__(self, node_id: NodeId, transport: Transport):
        self.node_id = node_id
        self.transport = transport
        #: The runtime Clock/Timers this node lives on (shared with the
        #: transport).  Read time via :attr:`now`, set timers via
        #: :meth:`start_timer`.
        self.runtime = transport.runtime
        cls = self.__class__
        handlers = NetworkNode._class_handlers.get(cls)
        if handlers is None:
            handlers = NetworkNode._class_handlers[cls] = {}
        self._handlers: Dict[Type[Message], Callable] = handlers
        self._own_handlers = False
        transport.register(self)

    def handles(self, message_type: Type[Message], handler: Handler) -> None:
        """Register ``handler`` for messages of ``message_type``.

        A bound method of this node lands in the class-shared table
        (identical for every instance, see ``_class_handlers``); any
        other callable forces this instance onto a private copy first.
        """
        func = getattr(handler, "__func__", None)
        if func is not None and getattr(handler, "__self__", None) is self:
            self._handlers[message_type] = func
            return
        if not self._own_handlers:
            self._handlers = dict(self._handlers)
            self._own_handlers = True
        self._handlers[message_type] = _wrap_external(handler)

    def send(self, dst: NodeId, message: Message) -> None:
        """Send ``message`` to ``dst`` through the transport."""
        self.transport.send(dst, message)

    def receive(self, message: Message) -> None:
        """Dispatch ``message`` to the handler registered for its type."""
        handler = self._handlers.get(type(message))
        if handler is None:
            raise NotImplementedError(
                f"{self.node_id} has no handler for {message.type_name}"
            )
        handler(self, message)

    @property
    def now(self) -> float:
        """Current time from the runtime clock (protocol units)."""
        return self.runtime.now

    def start_timer(
        self,
        delay: float,
        action: Callable[..., None],
        payload: Any = None,
    ) -> TimerHandle:
        """Arm a timer: run ``action`` ``delay`` time units from now.

        Returns a :class:`~repro.runtime.interface.TimerHandle` whose
        ``cancel()`` prevents the firing (cancel-before-fire is a
        no-op on the protocol state; cancel-after-fire is a no-op on
        the timer).
        """
        return self.runtime.schedule(delay, action, payload)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.node_id})"
