"""The join protocol as a pure effect-emitting state machine.

:class:`JoinMachine` exposes *exactly* the protocol logic of
:class:`~repro.protocol.node.ProtocolNode` -- the same handlers, the
same state variables, the same theorems hold -- behind a sans-io
surface: you feed it :class:`~repro.core.effects.MessageReceived` /
:class:`~repro.core.effects.TimerFired` inputs and it hands back
:class:`~repro.core.effects.Effect` values instead of touching a
transport or a clock.  The wrapping works by dependency inversion, not
by forking the code: the node's entire environment is the narrow
``transport.send`` / ``transport.send_lossy`` / ``runtime.now`` /
``runtime.schedule`` surface, and the machine swaps in an
effect-recording implementation of it.  One protocol implementation,
three ways to run it: the virtual-time runtime, the asyncio runtime,
and this pure form.

:func:`run_effect_loop` is the proof that the core is self-contained:
a ~60-line pure interpreter (a heap of pending deliveries, no
:mod:`repro.sim`, no :mod:`asyncio`) that drives a set of machines to
quiescence and the paper's Definition 3.8 consistency.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.effects import (
    CancelTimer,
    Effect,
    MessageReceived,
    Send,
    SendLossy,
    StartTimer,
    StatusChanged,
    Timer,
    TimerFired,
)
from repro.ids.digits import NodeId
from repro.network.message import Message
from repro.protocol.sizing import SizingPolicy
from repro.protocol.status import NodeStatus
from repro.routing.table import NeighborTable


class _RecordingRuntime:
    """The machine's clock and timer factory: emits effects, no IO."""

    def __init__(self, machine: "JoinMachine"):
        self._machine = machine
        #: Machine-local time; advanced by the inputs' timestamps.
        self.now = 0.0

    def schedule(
        self,
        delay: float,
        action: Callable[..., None],
        payload: Any = None,
    ) -> Timer:
        timer = Timer(action, payload, on_cancel=self._machine._on_cancel)
        self._machine._emit(StartTimer(timer, delay))
        return timer


class _RecordingTransport:
    """The machine's message sink: emits effects, no delivery."""

    def __init__(self, runtime: _RecordingRuntime, machine: "JoinMachine"):
        self.runtime = runtime
        self._machine = machine

    def register(self, node: Any) -> None:
        return None

    def unregister(self, node_id: NodeId) -> None:
        return None

    def send(self, dst: NodeId, message: Message) -> None:
        self._machine._emit(Send(dst, message))

    def send_lossy(self, dst: NodeId, message: Message) -> bool:
        # Liveness of dst is the environment's knowledge, not the
        # machine's; emit and let the environment drop if dead.
        self._machine._emit(SendLossy(dst, message))
        return True


class MachineError(RuntimeError):
    """An input the machine cannot accept (e.g. a cancelled timer)."""


class JoinMachine:
    """One node's join/leave/recovery protocol, sans-io.

    Every public method returns the list of effects the input caused,
    in emission order.  The machine never blocks, sleeps, or sends;
    state lives in :attr:`node` (a full
    :class:`~repro.protocol.node.ProtocolNode` over a recording
    environment), so every invariant and accessor of the production
    node -- ``status``, ``table``, the ``Q_*`` sets -- is available
    for assertions.
    """

    def __init__(
        self,
        node_id: NodeId,
        status: NodeStatus = NodeStatus.COPYING,
        table: Optional[NeighborTable] = None,
        sizing: SizingPolicy = SizingPolicy.FULL,
        now: float = 0.0,
    ):
        from repro.protocol.node import ProtocolNode

        self._effects: List[Effect] = []
        self._runtime = _RecordingRuntime(self)
        self._runtime.now = now
        transport = _RecordingTransport(self._runtime, self)
        #: The wrapped protocol state (inspect, never drive directly).
        self.node = ProtocolNode(
            node_id,
            transport,  # duck-typed: the node only sends and registers
            status=status,
            table=table,
            sizing=sizing,
        )
        self.node.on_phase = self._on_phase
        self.node.on_departed = self._on_departed
        self.departed = False
        # Construction must be pure: a freshly built node has said
        # nothing to the network yet.
        assert not self._effects, "node construction emitted effects"

    # -- state inspection ----------------------------------------------

    @property
    def node_id(self) -> NodeId:
        return self.node.node_id

    @property
    def status(self) -> NodeStatus:
        return self.node.status

    @property
    def table(self) -> NeighborTable:
        return self.node.table

    @property
    def now(self) -> float:
        """The machine's notion of time (from the last input)."""
        return self._runtime.now

    # -- effect plumbing ------------------------------------------------

    def _emit(self, effect: Effect) -> None:  # type: ignore[valid-type]
        self._effects.append(effect)

    def _on_cancel(self, timer: Timer) -> None:
        self._emit(CancelTimer(timer))

    def _on_phase(
        self, node_id: NodeId, status: NodeStatus, at: float
    ) -> None:
        self._emit(StatusChanged(node_id, status, at))

    def _on_departed(self, node_id: NodeId) -> None:
        self.departed = True

    def _collect(self) -> List[Effect]:  # type: ignore[valid-type]
        effects, self._effects = self._effects, []
        return effects

    def _advance(self, now: Optional[float]) -> None:
        if now is None:
            return
        if now < self._runtime.now:
            raise MachineError(
                f"time ran backwards: {now} < {self._runtime.now}"
            )
        self._runtime.now = now

    # -- driving --------------------------------------------------------

    def begin_join(
        self, gateway: NodeId, now: Optional[float] = None
    ) -> List[Effect]:  # type: ignore[valid-type]
        """Start the join through ``gateway``; returns the effects."""
        self._advance(now)
        self.node.begin_join(gateway)
        return self._collect()

    def begin_leave(self, now: Optional[float] = None) -> List[Effect]:  # type: ignore[valid-type]
        """Start a voluntary departure; returns the effects."""
        self._advance(now)
        self.node.begin_leave()
        return self._collect()

    def begin_failure_detection(
        self, timeout: float, now: Optional[float] = None
    ) -> List[Effect]:  # type: ignore[valid-type]
        """Start a liveness sweep (recovery protocol entry point)."""
        self._advance(now)
        self.node.begin_failure_detection(timeout)
        return self._collect()

    def cancel_failure_detection(
        self, now: Optional[float] = None
    ) -> List[Effect]:  # type: ignore[valid-type]
        """Call off an in-flight sweep; emits the ``CancelTimer``."""
        self._advance(now)
        self.node.cancel_failure_detection()
        return self._collect()

    def handle(
        self,
        event: Any,
        now: Optional[float] = None,
    ) -> List[Effect]:  # type: ignore[valid-type]
        """Consume one input; returns the effects it caused.

        ``now`` advances the machine clock before the input is applied
        (omit it for logical-time-free tests).  A ``TimerFired`` for a
        cancelled timer is rejected: the environment promised not to
        deliver it.
        """
        self._advance(now)
        if isinstance(event, MessageReceived):
            self.node.receive(event.message)
        elif isinstance(event, TimerFired):
            timer = event.timer
            if timer.cancelled:
                raise MachineError(f"cancelled timer delivered: {timer!r}")
            if timer.fired:
                raise MachineError(f"timer delivered twice: {timer!r}")
            timer.fired = True
            if timer.payload is None:
                timer.action()
            else:
                timer.action(timer.payload)
        else:
            raise MachineError(f"not a machine input: {event!r}")
        return self._collect()


# ---------------------------------------------------------------------------
# the pure interpreter


def run_effect_loop(
    machines: Dict[NodeId, JoinMachine],
    seeds: Iterable[Tuple[NodeId, List[Effect]]],  # type: ignore[valid-type]
    latency: Optional[Callable[[NodeId, NodeId], float]] = None,
    max_steps: int = 1_000_000,
) -> int:
    """Drive ``machines`` to quiescence with a minimal pure scheduler.

    ``seeds`` are ``(origin, effects)`` pairs -- typically the output
    of each joiner's :meth:`JoinMachine.begin_join` -- interpreted at
    time 0.  ``latency(src, dst)`` gives per-message delay (default:
    constant 1).  Returns the number of inputs delivered.

    This is deliberately *not* the simulator: no :mod:`repro.sim`
    import, no observability, ~60 lines -- existence proof that the
    protocol core needs nothing beyond effect interpretation.
    """
    if latency is None:
        latency = lambda src, dst: 1.0  # noqa: E731
    heap: List[Tuple[float, int, NodeId, Any]] = []
    seq = 0

    def interpret(
        origin: NodeId, at: float, effects: List[Effect]  # type: ignore[valid-type]
    ) -> None:
        nonlocal seq
        for effect in effects:
            if isinstance(effect, (Send, SendLossy)):
                if effect.dst not in machines:
                    if isinstance(effect, Send):
                        raise KeyError(f"unknown destination {effect.dst}")
                    continue  # lossy send to a dead node: drop
                deadline = at + latency(origin, effect.dst)
                item: Any = MessageReceived(effect.message)
                heapq.heappush(heap, (deadline, seq, effect.dst, item))
                seq += 1
            elif isinstance(effect, StartTimer):
                heapq.heappush(
                    heap,
                    (at + effect.delay, seq, origin, TimerFired(effect.timer)),
                )
                seq += 1
            # CancelTimer / StatusChanged need no action here: fired
            # timers are filtered on delivery, status is informational.

    for origin, effects in seeds:
        interpret(origin, 0.0, effects)

    steps = 0
    while heap:
        if steps >= max_steps:
            raise RuntimeError(f"no quiescence after {max_steps} inputs")
        at, _, target, event = heapq.heappop(heap)
        if isinstance(event, TimerFired) and event.timer.cancelled:
            continue
        machine = machines[target]
        if machine.departed and isinstance(event, MessageReceived):
            continue  # the network forgets departed nodes
        interpret(target, at, machine.handle(event, now=at))
        steps += 1
    return steps


__all__ = ["JoinMachine", "MachineError", "run_effect_loop"]
