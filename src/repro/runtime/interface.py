"""The runtime contract the protocol core runs against.

A *runtime* is everything the protocol stack is allowed to ask of its
execution environment, and nothing more:

* a **Clock** -- ``now``, a monotonically non-decreasing float in
  *protocol time units* (virtual time under the simulator, scaled
  wall-clock time under asyncio);
* **Timers** -- ``schedule(delay, action, payload=None)`` returning a
  cancelable :class:`TimerHandle` (``schedule_at`` for an absolute
  deadline);
* a drivable loop -- ``run()`` executes due actions until the system
  quiesces, ``quiesced()`` reports whether anything is still pending,
  and ``add_event_listener`` exposes the per-action observability hook
  the obs layer's LiveAuditor rides on (``events_fired`` and
  ``pending_events`` are read, not hooked).

Runtimes guarantee **handler atomicity**: scheduled actions run one at
a time, never concurrently, so protocol handlers need no locking.
Real-time runtimes achieve this by draining a FIFO :class:`Mailbox`
from a single dispatcher task.

The contract is expressed as :class:`typing.Protocol` types so the
existing simulator satisfies it structurally -- no inheritance, no
:mod:`repro.sim` import anywhere in this module.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Iterator,
    Optional,
    Protocol,
    runtime_checkable,
)


class SchedulingError(RuntimeError):
    """A scheduling request the runtime cannot honor (e.g. a negative
    delay under a runtime that cannot rewind its clock)."""


class WallClockBudgetExceeded(RuntimeError):
    """A real-time run exceeded its wall-clock budget before the
    network quiesced.  Raised instead of returning so CI smoke jobs
    fail loudly rather than reporting a half-finished run."""


@runtime_checkable
class TimerHandle(Protocol):
    """A scheduled action that can be cancelled before it fires.

    ``cancel()`` is idempotent; cancelling after the action ran is a
    no-op.  ``cancelled`` reports whether a cancel landed in time.
    """

    cancelled: bool

    def cancel(self) -> None:
        """Prevent the action from firing (no-op if it already did)."""


@runtime_checkable
class Clock(Protocol):
    """Read-only access to the runtime's notion of time."""

    @property
    def now(self) -> float:
        """Current time in protocol time units."""


@runtime_checkable
class Timers(Protocol):
    """Deferred execution of callbacks."""

    def schedule(
        self,
        delay: float,
        action: Callable[..., None],
        payload: Any = None,
    ) -> TimerHandle:
        """Run ``action`` (with ``payload`` if given) ``delay`` time
        units from now; returns a cancelable handle."""

    def schedule_at(
        self,
        time: float,
        action: Callable[..., None],
        payload: Any = None,
    ) -> TimerHandle:
        """Run ``action`` at absolute time ``time``."""


@runtime_checkable
class Runtime(Clock, Timers, Protocol):
    """The full contract: Clock + Timers + a drivable loop.

    :class:`repro.sim.scheduler.Simulator` and
    :class:`~repro.runtime.realtime.AsyncioRuntime` both satisfy this
    structurally, so ``Transport(Simulator(), ...)`` and
    ``Transport(create_runtime("sim"), ...)`` are the same thing.
    """

    #: Short tag identifying the adapter ("sim", "asyncio").
    name: str

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Execute due actions until quiescence (or a bound); returns
        the number of actions executed by this call."""

    def quiesced(self) -> bool:
        """True when no scheduled action remains pending."""

    def add_event_listener(
        self, listener: Callable[[float, int], None]
    ) -> None:
        """Chain ``listener(now, pending)`` to fire after every
        executed action (observability hook)."""


class Mailbox:
    """A FIFO of due-but-not-yet-executed deliveries.

    Real-time runtimes decouple *when a timer fires* from *when its
    action runs*: expiry callbacks only append to the mailbox, and a
    single dispatcher drains it in arrival order.  That serialization
    is what gives real-time runtimes the same handler-atomicity
    guarantee the discrete-event simulator provides by construction.
    """

    __slots__ = ("_items",)

    def __init__(self) -> None:
        self._items: Deque[Any] = deque()

    def put(self, item: Any) -> None:
        """Append ``item`` to the tail of the queue."""
        self._items.append(item)

    def pop(self) -> Any:
        """Remove and return the head of the queue (raises IndexError
        when empty)."""
        return self._items.popleft()

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)


__all__ = [
    "Clock",
    "Mailbox",
    "Runtime",
    "SchedulingError",
    "TimerHandle",
    "Timers",
    "WallClockBudgetExceeded",
]
