"""The simulator: virtual clock plus run loop."""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro.runtime.collector import collector_paused
from repro.runtime.interface import SchedulingError
from repro.sim.events import Event, EventQueue, QueueRuntime


class SimulationError(SchedulingError):
    """Raised for scheduling mistakes (e.g. scheduling in the past).

    Subclasses the runtime contract's
    :class:`~repro.runtime.interface.SchedulingError` so callers can
    catch scheduling misuse uniformly across runtimes.
    """


class Simulator(QueueRuntime):
    """A discrete event simulator with a floating-point virtual clock.

    Typical use::

        sim = Simulator()
        sim.schedule(0.0, some_callback)
        sim.run()

    ``run`` drains the queue (optionally up to a time or event limit);
    time advances only when events fire, so an empty queue means the
    simulated system has quiesced.
    """

    #: Runtime-contract tag (see :mod:`repro.runtime.interface`).
    name = "sim"

    def __init__(self) -> None:
        super().__init__()
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    def schedule(
        self,
        delay: float,
        action: Callable[..., None],
        payload: Any = None,
    ) -> Event:
        """Schedule ``action`` to fire ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        return self._queue.push(self._now + delay, action, payload)

    def schedule_fire(
        self,
        delay: float,
        action: Callable[..., None],
        payload: Any = None,
    ) -> None:
        """Schedule ``action`` with no cancellation handle.

        The fire-and-forget fast path: identical firing semantics to
        :meth:`schedule`, but returns nothing, so the entry is a bare
        ``(time, seq, action, payload)`` tuple pushed straight onto the
        queue's heap (what :meth:`EventQueue.push_fire
        <repro.sim.events.EventQueue.push_fire>` does, minus a call).
        The transport schedules every message delivery here.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        heappush(
            self._heap, (self._now + delay, next(self._seq), action, payload)
        )

    def schedule_at(
        self,
        time: float,
        action: Callable[..., None],
        payload: Any = None,
    ) -> Event:
        """Schedule ``action`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time}, now is {self._now}"
            )
        return self._queue.push(time, action, payload)

    def schedule_many(self, entries) -> "list[Event]":
        """Bulk-schedule ``(delay, action, payload)`` entries.

        Semantically identical to calling :meth:`schedule` per entry
        (same firing order for simultaneous entries), but pays one
        O(n) ``heapify`` instead of n heap sifts — the difference
        between seconds and minutes when an experiment launches 10⁵
        join timers at once."""
        now = self._now
        batch = []
        for delay, action, payload in entries:
            if delay < 0:
                raise SimulationError(
                    f"cannot schedule in the past: {delay}"
                )
            batch.append((now + delay, action, payload))
        return self._queue.push_many(batch)

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Fire events until the queue drains (or a limit is reached).

        Returns the number of events fired by this call.  ``until`` is an
        inclusive virtual-time bound; ``max_events`` bounds the number of
        events fired (useful as a watchdog in tests).

        The cyclic garbage collector is paused while events fire and
        the caller's collector state is restored when ``run`` returns
        or raises.  Contract for handlers: they must not build
        reference cycles.  A cycle a handler does build is not leaked,
        but it is reclaimed only by a collection after ``run`` returns.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        with collector_paused():
            return self._drain(until, max_events)

    def _drain(self, until: Optional[float], max_events: Optional[int]) -> int:
        """The body of :meth:`run`, with the collector already paused.

        Pops inline: a fire-and-forget ``(time, seq, action, payload)``
        entry (every message delivery) fires as it is; a ``(time, seq,
        event)`` entry goes through :meth:`EventQueue.retire
        <repro.sim.events.EventQueue.retire>` first, which skips
        cancelled timers.  The limit and listener checks are local
        tests, so the unbounded, unobserved drain every experiment
        takes pays a few bytecodes per event for them and no call; an
        observed drain publishes :attr:`events_fired` before each
        listener call, so a listener reads the running count.
        """
        self._running = True
        before = self._events_fired
        fired = 0
        on_event_fired = self.on_event_fired
        queue = self._queue
        heap = queue.heap
        retire = queue.retire
        limit = sys.maxsize if max_events is None else max_events
        try:
            while heap and fired < limit:
                if until is not None and heap[0][0] > until:
                    break
                entry = heappop(heap)
                if len(entry) == 4:
                    self._now = entry[0]
                    payload = entry[3]
                    if payload is None:
                        entry[2]()
                    else:
                        entry[2](payload)
                elif retire(entry[2]):
                    self._now = entry[0]
                    entry[2].fire()
                else:
                    continue
                fired += 1
                if on_event_fired is not None:
                    self._events_fired = before + fired
                    on_event_fired(self._now, len(queue))
        finally:
            self._events_fired = before + fired
            self._running = False
        if until is not None and self._now < until and not self._queue:
            # Advance the clock to the bound so repeated bounded runs
            # observe monotonic time.
            self._now = until
        return fired

    def clear(self) -> None:
        """Drop every pending event unfired (the owning network's
        teardown: pending events are the queue's only references to
        the simulation's nodes)."""
        self._set_queue(EventQueue())
