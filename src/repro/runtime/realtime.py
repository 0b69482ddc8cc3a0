"""Real-time runtime: wall-clock execution on an asyncio event loop.

The identical protocol core that runs under the virtual-time simulator
runs here over real time.  Timers live in the simulator's own
:class:`~repro.sim.events.EventQueue`, keyed by ``(deadline, seq)`` in
protocol time units; ``now`` reads the monotonic clock the loop reads,
and ``run()`` blocks the calling thread until the network quiesces
(no timer pending) or a wall-clock budget expires.

Design notes:

* **Protocol time units.**  Latency models and protocol timeouts are
  written in abstract time units (the paper's milliseconds-ish scale).
  ``time_scale`` converts them to seconds of wall-clock time; the
  default of 1 ms per unit makes a uniform 1-100 unit latency model
  behave like a 1-100 ms network.  ``now`` converts back, so protocol
  timestamps (``join_began_at``, trace times) stay in protocol units
  on both runtimes.
* **One dispatcher, one order.**  A single coroutine runs in passes.
  A pass fires, one at a time and in ``(deadline, seq)`` order, the
  entries that were due when it began -- the simulator's order, ties
  included -- then yields to the loop once so socket reads interleave.
  With nothing due it sleeps until the head deadline (the runtime's
  one loop timer), a :meth:`AsyncioRuntime.kick` or a schedule from a
  loop callback.  Protocol handlers therefore never interleave -- the
  same guarantee the discrete-event loop gives -- and the
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
import sys
from heapq import heappop, heappush
from time import monotonic
from typing import Any, Callable, List, Optional

from repro.runtime.interface import SchedulingError, WallClockBudgetExceeded
from repro.sim.events import Event, QueueRuntime


class AsyncioRuntime(QueueRuntime):
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
        super().__init__()
        self.time_scale = time_scale
        self._loop = asyncio.new_event_loop()
        # The loop's clock is ``time.monotonic``; reading it directly
        # keeps ``now`` off the loop's Python-level ``time()``.
        self._epoch = monotonic()
        self._closed = False
        #: The sleeping dispatcher's wake-up (None while it runs).
        self._waiter: Optional[asyncio.Future] = None

    # -- Clock ----------------------------------------------------------

    @property
    def now(self) -> float:
        """Wall-clock time since construction, in protocol units."""
        return (monotonic() - self._epoch) / self.time_scale

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The private event loop, for I/O adapters that must live on
        it (the UDP :class:`~repro.net.datagram.DatagramTransport`
        creates its socket endpoint here so datagram callbacks and the
        dispatcher never race)."""
        return self._loop

    def kick(self) -> None:
        """Wake a sleeping dispatcher so it re-examines the queue.

        Loop callbacks that retire pending work *outside* a scheduled
        action -- e.g. a datagram handler cancelling a retransmission
        timer when an ack lands -- must call this, otherwise a ``run()``
        asleep until the cancelled deadline would sleep through the
        transition to quiescence.  Scheduling wakes it by itself.
        """
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    # -- Timers ---------------------------------------------------------

    def schedule(
        self,
        delay: float,
        action: Callable[..., None],
        payload: Any = None,
    ) -> Event:
        """Run ``action`` ``delay`` protocol-time units from now."""
        if delay < 0:
            raise SchedulingError(f"cannot schedule in the past: {delay}")
        return self._push(self.now + delay, action, payload)

    def schedule_at(
        self,
        time: float,
        action: Callable[..., None],
        payload: Any = None,
    ) -> Event:
        """Run ``action`` at absolute protocol time ``time`` (clamped
        to "immediately" when the deadline has already passed)."""
        now = self.now
        return self._push(time if time > now else now, action, payload)

    def schedule_fire(
        self,
        delay: float,
        action: Callable[..., None],
        payload: Any = None,
    ) -> None:
        """:meth:`schedule` with no cancellation handle: the entry is a
        bare ``(deadline, seq, action, payload)`` tuple, as in
        :meth:`repro.sim.scheduler.Simulator.schedule_fire`."""
        if delay < 0:
            raise SchedulingError(f"cannot schedule in the past: {delay}")
        if self._closed:
            raise RuntimeError("AsyncioRuntime is closed")
        heappush(
            self._heap, (self.now + delay, next(self._seq), action, payload)
        )
        if self._waiter is not None:
            self.kick()

    def schedule_many(self, entries) -> List[Event]:
        """Bulk-schedule ``(delay, action, payload)`` entries against
        one reading of ``now``, in order.  Like :meth:`schedule_at`, a
        negative delay (a deadline already passed) clamps to now."""
        if self._closed:
            raise RuntimeError("AsyncioRuntime is closed")
        now = self.now
        events = self._queue.push_many(
            (now + delay if delay > 0 else now, action, payload)
            for delay, action, payload in entries
        )
        if self._waiter is not None:
            self.kick()
        return events

    def _push(
        self, time: float, action: Callable[..., None], payload: Any
    ) -> Event:
        if self._closed:
            raise RuntimeError("AsyncioRuntime is closed")
        event = self._queue.push(time, action, payload)
        if self._waiter is not None:
            self.kick()
        return event

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
                self._dispatch(until, max_events, wall_budget)
            )
        finally:
            self._running = False

    async def _dispatch(
        self,
        until: Optional[float],
        max_events: Optional[int],
        wall_budget: Optional[float],
    ) -> int:
        loop = self._loop
        queue = self._queue
        heap = queue.heap
        retire = queue.retire
        budget = None if wall_budget is None else monotonic() + wall_budget
        limit = sys.maxsize if max_events is None else max_events
        fired = 0
        while True:
            # One pass: what was due when it began, in (deadline, seq)
            # order; what a handler schedules now waits for the next.
            due = self.now
            if until is not None and until < due:
                due = until
            while heap and heap[0][0] <= due:
                if fired >= limit:
                    return fired
                entry = heappop(heap)
                if len(entry) == 4:
                    if entry[3] is None:
                        entry[2]()
                    else:
                        entry[2](entry[3])
                elif retire(entry[2]):
                    entry[2].fire()
                else:
                    continue
                fired += 1
                self._events_fired += 1
                listener = self.on_event_fired
                if listener is not None:
                    listener(self.now, len(queue))
                if budget is not None and monotonic() > budget:
                    self._budget_exceeded(wall_budget)
            head = queue.peek_time()
            if head is None or fired >= limit:
                return fired
            now = self.now
            if until is not None and head > until:
                if now >= until:
                    return fired
                head = until
            if head <= now:
                await asyncio.sleep(0)  # the pass's one yield
                continue
            # Nothing due: sleep until the head deadline, a kick() or
            # a schedule from a loop callback (which kicks).
            when = self._epoch + head * self.time_scale
            if budget is not None and budget < when:
                when = budget
            waiter = self._waiter = loop.create_future()
            wake = loop.call_at(when, self.kick)
            try:
                await waiter
            finally:
                self._waiter = None
                wake.cancel()
            if budget is not None and monotonic() >= budget:
                self._budget_exceeded(wall_budget)

    def _budget_exceeded(self, wall_budget: Optional[float]) -> None:
        raise WallClockBudgetExceeded(
            f"network did not quiesce within {wall_budget}s of wall "
            f"clock ({self.pending_events} actions still pending at "
            f"protocol time {self.now:.1f})"
        )

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Release the private event loop; scheduling afterwards
        raises :class:`RuntimeError`."""
        self._closed = True
        if not self._loop.is_closed():
            self._loop.close()

    def __enter__(self) -> "AsyncioRuntime":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


__all__ = ["AsyncioRuntime"]
