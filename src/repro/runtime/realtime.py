"""Real-time runtime: wall-clock execution on an asyncio event loop.

The identical protocol core that runs under the virtual-time simulator
runs here over real time: ``schedule`` becomes ``loop.call_later``,
``now`` reads the loop's monotonic clock, and ``run()`` blocks the
calling thread until the network quiesces (no timer pending and the
mailbox drained) or a wall-clock budget expires.

Design notes:

* **Protocol time units.**  Latency models and protocol timeouts are
  written in abstract time units (the paper's milliseconds-ish scale).
  ``time_scale`` converts them to seconds of wall-clock time; the
  default of 1 ms per unit makes a uniform 1-100 unit latency model
  behave like a 1-100 ms network.  ``now`` converts back, so protocol
  timestamps (``join_began_at``, trace times) stay in protocol units
  on both runtimes.
* **Handler atomicity via the Mailbox.**  Expired timers do not run
  their actions inline: they append to a FIFO
  :class:`~repro.runtime.interface.Mailbox`, and a single dispatcher
  coroutine (the "in-process task" of the runtime) drains it, one
  action at a time.  Protocol handlers therefore never interleave --
  the same guarantee the discrete-event loop gives -- and the
  ``add_event_listener`` hook fires after each action exactly like the
  simulator's, so LiveAuditor attaches unchanged.
* **No past scheduling.**  Real time cannot rewind, so ``schedule_at``
  with a deadline already behind ``now`` clamps to "immediately"
  instead of raising like the simulator (joins started "at t=0" a few
  microseconds after construction must not crash).  Negative relative
  delays are still programming errors and raise.

Messages cross real sockets through
:class:`~repro.net.datagram.DatagramTransport` (one UDP socket per
node, framed in the :mod:`repro.runtime.codec` wire format) -- or stay
in-process through the in-memory transport, interchangeably.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Optional

from repro.runtime.interface import (
    Mailbox,
    SchedulingError,
    WallClockBudgetExceeded,
)

_PENDING, _CANCELLED, _DONE = 0, 1, 2


class _ScheduledAction:
    """One scheduled callback: deadline, payload, and cancel state."""

    __slots__ = ("runtime", "action", "payload", "state", "handle")

    def __init__(
        self,
        runtime: "AsyncioRuntime",
        action: Callable[..., None],
        payload: Any,
    ):
        self.runtime = runtime
        self.action = action
        self.payload = payload
        self.state = _PENDING
        #: The loop's call_later handle (None once expired).
        self.handle: Optional[asyncio.TimerHandle] = None

    @property
    def cancelled(self) -> bool:
        return self.state == _CANCELLED

    def cancel(self) -> None:
        """Cancel before the action runs (idempotent; no-op after).

        The action and payload are dropped with it, so a payload that
        refers back to whatever holds this timer builds no cycle that
        outlives the cancel (the dispatcher skips cancelled items)."""
        if self.state != _PENDING:
            return
        self.state = _CANCELLED
        self.action = self.payload = None
        if self.handle is not None:
            self.handle.cancel()
        self.runtime._outstanding -= 1

    def fire(self) -> None:
        """Execute the action (dispatcher only)."""
        self.state = _DONE
        if self.payload is None:
            self.action()
        else:
            self.action(self.payload)


class AsyncioRuntime:
    """Wall-clock runtime over a private asyncio event loop.

    Satisfies the :class:`~repro.runtime.interface.Runtime` contract.
    The loop is owned by this object (created eagerly, never installed
    as the thread's current loop) and should be released with
    :meth:`close` -- or use the runtime as a context manager.
    """

    #: Runtime-contract tag (the CLI's ``--runtime asyncio``).
    name = "asyncio"

    def __init__(self, time_scale: float = 0.001):
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive: {time_scale}")
        self.time_scale = time_scale
        self._loop = asyncio.new_event_loop()
        self._epoch = self._loop.time()
        self._mailbox = Mailbox()
        self._outstanding = 0  # scheduled, neither cancelled nor run
        self._events_fired = 0
        self._running = False
        self._wakeup: Optional[asyncio.Event] = None
        #: Observability hook, same shape as the simulator's: called as
        #: ``cb(now, pending)`` after each executed action.
        self.on_event_fired: Optional[Callable[[float, int], None]] = None

    # -- Clock ----------------------------------------------------------

    @property
    def now(self) -> float:
        """Wall-clock time since construction, in protocol units."""
        return (self._loop.time() - self._epoch) / self.time_scale

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The private event loop, for I/O adapters that must live on
        it (the UDP :class:`~repro.net.datagram.DatagramTransport`
        creates its socket endpoint here so datagram callbacks and the
        dispatcher never race)."""
        return self._loop

    def kick(self) -> None:
        """Wake the dispatcher so it re-examines quiescence.

        Loop callbacks that retire pending work *outside* a scheduled
        action -- e.g. a datagram handler cancelling a retransmission
        timer when an ack lands -- must call this, otherwise a ``run()``
        blocked on "outstanding > 0, mailbox empty" would sleep through
        the transition to quiescence.
        """
        if self._wakeup is not None:
            self._wakeup.set()

    # -- Timers ---------------------------------------------------------

    def schedule(
        self,
        delay: float,
        action: Callable[..., None],
        payload: Any = None,
    ) -> _ScheduledAction:
        """Run ``action`` ``delay`` protocol-time units from now."""
        if delay < 0:
            raise SchedulingError(f"cannot schedule in the past: {delay}")
        item = _ScheduledAction(self, action, payload)
        item.handle = self._loop.call_later(
            delay * self.time_scale, self._expire, item
        )
        self._outstanding += 1
        return item

    def schedule_at(
        self,
        time: float,
        action: Callable[..., None],
        payload: Any = None,
    ) -> _ScheduledAction:
        """Run ``action`` at absolute protocol time ``time`` (clamped
        to "immediately" when the deadline has already passed)."""
        return self.schedule(max(0.0, time - self.now), action, payload)

    def _expire(self, item: _ScheduledAction) -> None:
        """call_later callback: move the item into the mailbox."""
        item.handle = None
        if item.state != _PENDING:
            return
        self._mailbox.put(item)
        if self._wakeup is not None:
            self._wakeup.set()

    # -- observability --------------------------------------------------

    @property
    def events_fired(self) -> int:
        return self._events_fired

    @property
    def pending_events(self) -> int:
        """Actions scheduled (or due in the mailbox) but not yet run."""
        return self._outstanding

    def add_event_listener(
        self, listener: Callable[[float, int], None]
    ) -> None:
        """Chain ``listener`` onto :attr:`on_event_fired` (the same
        contract as :meth:`repro.sim.scheduler.Simulator.add_event_listener`)."""
        previous = self.on_event_fired
        if previous is None:
            self.on_event_fired = listener
            return

        def chained(now: float, pending: int) -> None:
            previous(now, pending)
            listener(now, pending)

        self.on_event_fired = chained

    # -- run loop -------------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        wall_budget: Optional[float] = None,
    ) -> int:
        """Dispatch actions until quiescence; returns actions executed.

        ``until`` bounds the run in protocol time (remaining timers stay
        scheduled for a later ``run``); ``max_events`` bounds the number
        of actions; ``wall_budget`` (seconds of real time) raises
        :class:`~repro.runtime.interface.WallClockBudgetExceeded` if
        the system has not quiesced in time.
        """
        if self._running:
            raise SchedulingError("run() is not reentrant")
        self._running = True
        try:
            return self._loop.run_until_complete(
                self._drain(until, max_events, wall_budget)
            )
        finally:
            self._running = False

    async def _drain(
        self,
        until: Optional[float],
        max_events: Optional[int],
        wall_budget: Optional[float],
    ) -> int:
        loop = self._loop
        self._wakeup = asyncio.Event()
        budget_deadline = (
            loop.time() + wall_budget if wall_budget is not None else None
        )
        fired = 0
        try:
            while True:
                while self._mailbox:
                    if max_events is not None and fired >= max_events:
                        return fired
                    if until is not None and self.now > until:
                        return fired
                    item = self._mailbox.pop()
                    if item.state != _PENDING:
                        continue
                    self._outstanding -= 1
                    item.fire()
                    fired += 1
                    self._events_fired += 1
                    listener = self.on_event_fired
                    if listener is not None:
                        listener(self.now, self._outstanding)
                    if (
                        budget_deadline is not None
                        and loop.time() > budget_deadline
                    ):
                        self._budget_exceeded(wall_budget)
                if self._outstanding == 0:
                    return fired
                if max_events is not None and fired >= max_events:
                    return fired
                timeout = None
                if budget_deadline is not None:
                    timeout = budget_deadline - loop.time()
                    if timeout <= 0:
                        self._budget_exceeded(wall_budget)
                if until is not None:
                    to_until = (until - self.now) * self.time_scale
                    if to_until <= 0:
                        return fired
                    timeout = (
                        to_until if timeout is None
                        else min(timeout, to_until)
                    )
                self._wakeup.clear()
                try:
                    if timeout is None:
                        await self._wakeup.wait()
                    else:
                        await asyncio.wait_for(
                            self._wakeup.wait(), timeout
                        )
                except asyncio.TimeoutError:
                    if (
                        budget_deadline is not None
                        and loop.time() >= budget_deadline
                    ):
                        self._budget_exceeded(wall_budget)
                    # otherwise the `until` bound elapsed; the loop
                    # re-checks and returns on the next iteration
        finally:
            self._wakeup = None

    def _budget_exceeded(self, wall_budget: Optional[float]) -> None:
        raise WallClockBudgetExceeded(
            f"network did not quiesce within {wall_budget}s of wall "
            f"clock ({self._outstanding} actions still pending at "
            f"protocol time {self.now:.1f})"
        )

    def quiesced(self) -> bool:
        """True when no scheduled action remains pending."""
        return self._outstanding == 0

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Release the private event loop."""
        if not self._loop.is_closed():
            self._loop.close()

    def __enter__(self) -> "AsyncioRuntime":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


__all__ = ["AsyncioRuntime"]
