"""The runtime contract the protocol core runs against.

A *runtime* is everything the protocol stack is allowed to ask of its
execution environment, and nothing more:

* a **Clock** -- ``now``, a monotonically non-decreasing float in
  *protocol time units* (virtual time under the simulator, scaled
  wall-clock time under asyncio);
* **Timers** -- ``schedule(delay, action, payload=None)`` returning a
  cancelable :class:`TimerHandle` (``schedule_at`` for an absolute
  deadline), ``schedule_fire`` for a delivery that is never cancelled
  (no handle) and ``schedule_many`` for a batch;
* a drivable loop -- ``run()`` executes due actions until the system
  quiesces, ``quiesced()`` reports whether anything is still pending,
  and ``add_event_listener`` exposes the per-action observability hook
  the obs layer's LiveAuditor rides on (``events_fired`` and
  ``pending_events`` are read, not hooked).

Runtimes guarantee **handler atomicity**: scheduled actions run one at
a time, never concurrently, so protocol handlers need no locking.
Both runtimes fire them from one ``(time, seq)`` event queue in that
order, ties in scheduling order; the real-time runtime drives the
queue from a single dispatcher task.

The contract is expressed as :class:`typing.Protocol` types so the
existing simulator satisfies it structurally -- no inheritance, no
:mod:`repro.sim` import anywhere in this module.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Iterable,
    List,
    Optional,
    Protocol,
    Tuple,
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

    def schedule_fire(
        self,
        delay: float,
        action: Callable[..., None],
        payload: Any = None,
    ) -> None:
        """:meth:`schedule` for an action that is never cancelled: the
        same firing order, no handle."""

    def schedule_many(
        self,
        entries: Iterable[Tuple[float, Callable[..., None], Any]],
    ) -> List[TimerHandle]:
        """Schedule ``(delay, action, payload)`` entries in the order
        given, against one reading of the clock; returns their
        handles."""


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

    @property
    def events_fired(self) -> int:
        """Actions executed so far, over every run."""

    @property
    def pending_events(self) -> int:
        """Actions scheduled, neither cancelled nor executed yet."""

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


__all__ = [
    "Clock",
    "Runtime",
    "SchedulingError",
    "TimerHandle",
    "Timers",
    "WallClockBudgetExceeded",
]
