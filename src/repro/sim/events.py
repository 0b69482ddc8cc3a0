"""Timestamped events and the event queue.

Events are ordered by ``(time, sequence)`` where the sequence number is
assigned at scheduling time; ties in virtual time therefore fire in
FIFO order, which keeps runs deterministic for a fixed seed.

The heap stores plain ``(time, seq, event)`` tuples rather than the
:class:`Event` objects themselves: tuple comparison runs in C, so the
``log n`` comparisons of every push/pop avoid a Python-level ``__lt__``
call each.  ``(time, seq)`` is unique per queue, so a comparison never
reaches the third element.  That uniqueness also lets the queue mix in
bare ``(time, seq, action, payload)`` 4-tuples for fire-and-forget
scheduling (:meth:`EventQueue.push_fire`): message deliveries dominate
a simulation's schedule volume and are never cancelled, so they skip
the :class:`Event` allocation entirely.  The simulator pushes those
straight onto :attr:`EventQueue.heap` and pops inline (see
:meth:`repro.sim.scheduler.Simulator.run`); what popping an entry
means is defined once, by :meth:`EventQueue.retire`.

The queue is one binary heap.  Two devices keep it cheap at scale,
both invisible to pop order:

* **Batched pushes** (:meth:`EventQueue.push_many`) — a bulk schedule
  (10⁵ join timers) is appended and heapified once in O(n) instead of
  paying n O(log n) sifts.
* **Compaction** (see :meth:`EventQueue.note_cancelled`) — cancellation
  is lazy, which is O(1), but a workload that schedules-and-cancels
  retry timers forever (every message send in the wire tier) leaves
  tombstones in the heap.  When dead entries outnumber live ones the
  queue rebuilds itself, so memory tracks the *live* event count.

Both runtimes drive one of these queues: the simulator in virtual time
(:class:`repro.sim.scheduler.Simulator`), the asyncio runtime in
scaled wall-clock time (:class:`repro.runtime.realtime.AsyncioRuntime`,
whose wire tier arms and cancels a retry timer per datagram).  What
the two share around the queue is :class:`QueueRuntime`.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import count
from typing import Any, Callable, Iterable, List, Optional, Tuple

#: Sentinel stored in ``Event.queue`` once the event has been popped
#: (fired); ``None`` means the event was never enqueued.
_DONE = object()

#: Compaction threshold: never compact below this many dead entries
#: (small heaps are cheap to scan and rebuilds would churn).
_COMPACT_MIN_DEAD = 64


class Event:
    """A scheduled callback.

    ``fire()`` invokes the action unless the event has been cancelled.
    Cancellation is lazy: the entry stays in the heap and is skipped when
    popped (until the queue decides to compact).
    """

    __slots__ = ("time", "seq", "action", "payload", "cancelled", "queue")

    def __init__(
        self,
        time: float,
        seq: int,
        action: Callable[..., None],
        payload: Any = None,
    ):
        self.time = time
        self.seq = seq
        self.action = action
        self.payload = payload
        self.cancelled = False
        # None = never enqueued, an EventQueue = pending, _DONE = fired.
        self.queue: Any = None

    def cancel(self) -> None:
        """Mark the event so it is skipped when popped.

        Idempotent, and a no-op once the event has left the queue
        (fired): ``cancelled`` only reports cancels that landed in
        time, per the :class:`~repro.runtime.interface.TimerHandle`
        contract.
        """
        if self.cancelled or self.queue is _DONE:
            return
        self.cancelled = True
        # Dropped with the cancel, so a payload that refers back to
        # whatever holds this event builds no cycle that outlives it.
        self.action = self.payload = None
        queue = self.queue
        if queue is not None:
            queue.note_cancelled()

    def fire(self) -> None:
        """Invoke the action unless the event was cancelled."""
        if self.cancelled:
            return
        if self.payload is None:
            self.action()
        else:
            self.action(self.payload)

    def __lt__(self, other: "Event") -> bool:
        # Retained for direct Event comparisons (the queue itself
        # compares (time, seq, event) tuples, which never get this far).
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time}, seq={self.seq}{state})"


class EventQueue:
    """A stable min-heap of events.

    ``heap`` and ``seq`` are the raw structures: a scheduler that
    pushes fire-and-forget entries itself does
    ``heappush(queue.heap, (time, next(queue.seq), action, payload))``,
    exactly what :meth:`push_fire` does.  Both objects live as long as
    the queue (compaction rebuilds the heap in place).
    """

    def __init__(self) -> None:
        self.heap: List[tuple] = []
        #: Sequence numbers in scheduling order (FIFO among equal times).
        self.seq = count()
        # Cancelled entries still sitting in the heap: the live count
        # is ``len(heap) - _dead``, so pushes and pops of
        # fire-and-forget entries need no bookkeeping at all.
        self._dead = 0

    # -- scheduling ----------------------------------------------------

    def push(
        self,
        time: float,
        action: Callable[..., None],
        payload: Any = None,
    ) -> Event:
        """Schedule ``action`` at virtual time ``time``; returns the event."""
        seq = next(self.seq)
        event = Event(time, seq, action, payload)
        event.queue = self
        heappush(self.heap, (time, seq, event))
        return event

    def push_fire(
        self,
        time: float,
        action: Callable[..., None],
        payload: Any = None,
    ) -> None:
        """Fire-and-forget schedule: no :class:`Event` handle, so the
        entry cannot be cancelled and costs no object allocation."""
        heappush(self.heap, (time, next(self.seq), action, payload))

    def push_many(
        self,
        entries: Iterable[Tuple[float, Callable[..., None], Any]],
    ) -> List[Event]:
        """Schedule a batch of ``(time, action, payload)`` entries at once.

        Sequence numbers are assigned in iteration order, so
        simultaneous entries fire in the order given — exactly as if
        pushed one by one.  When the batch rivals the heap in size the
        heap is rebuilt with one O(n) ``heapify`` instead of n
        O(log n) sifts; either way the pop order is identical, since
        a heap's pop sequence is determined by its contents and
        ``(time, seq)`` is a total order.
        """
        heap = self.heap
        events: List[Event] = []
        counter = self.seq
        heaped = len(heap)
        for time, action, payload in entries:
            seq = next(counter)
            event = Event(time, seq, action, payload)
            event.queue = self
            events.append(event)
            heap.append((time, seq, event))
        added = len(events)
        if added:
            if added > heaped // 2:
                heapify(heap)
            else:
                tail = heap[heaped:]
                del heap[heaped:]
                for entry in tail:
                    heappush(heap, entry)
        return events

    # -- draining ------------------------------------------------------

    def retire(self, event: Event) -> bool:
        """Account a popped :class:`Event` entry: False for a cancelled
        one (a tombstone, to be skipped), True for a live one, which
        from now on ignores ``cancel()``.  Fire-and-forget entries
        need no retiring: popping them is all there is."""
        if event.cancelled:
            self._dead -= 1
            return False
        event.queue = _DONE
        return True

    def pop_entry(self) -> Optional[tuple]:
        """Remove and return the earliest live entry, or None.

        Returns either a ``(time, seq, event)`` or a fire-and-forget
        ``(time, seq, action, payload)`` entry (discriminate on
        ``len``), skipping cancelled events.
        """
        heap = self.heap
        while heap:
            entry = heappop(heap)
            if len(entry) == 4 or self.retire(entry[2]):
                return entry
        return None

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest non-cancelled event, or None.

        Fire-and-forget entries come back boxed in an already-retired
        :class:`Event` (cancel is a no-op, matching their contract).
        """
        entry = self.pop_entry()
        if entry is None:
            return None
        if len(entry) == 3:
            return entry[2]
        event = Event(entry[0], entry[1], entry[2], entry[3])
        event.queue = _DONE
        return event

    def peek_time(self) -> Optional[float]:
        """Virtual time of the next live event, or None if empty."""
        heap = self.heap
        while heap:
            head = heap[0]
            if len(head) == 3 and head[2].cancelled:
                heappop(heap)
                self._dead -= 1
                continue
            return head[0]
        return None

    # -- cancellation / compaction -------------------------------------

    def note_cancelled(self) -> None:
        """Account a lazily-cancelled entry; compact when tombstones
        outnumber live events (and exceed :data:`_COMPACT_MIN_DEAD`),
        so a schedule-and-cancel workload keeps O(live) memory."""
        dead = self._dead + 1
        if dead > _COMPACT_MIN_DEAD and dead > len(self.heap) - dead:
            self._compact()
        else:
            self._dead = dead

    def _compact(self) -> None:
        """Drop every cancelled entry and re-heapify, in place (a
        running drain holds the heap list).

        O(total entries), amortized O(1) per cancel by the doubling
        threshold in :meth:`note_cancelled`.  Relative order of the
        survivors is untouched — the heap's pop sequence depends only
        on its contents."""
        heap = self.heap
        heap[:] = [e for e in heap if len(e) == 4 or not e[2].cancelled]
        heapify(heap)
        self._dead = 0

    # -- introspection -------------------------------------------------

    @property
    def dead_entries(self) -> int:
        """Cancelled entries currently tombstoned in the queue."""
        return self._dead

    def __len__(self) -> int:
        return len(self.heap) - self._dead

    def __bool__(self) -> bool:
        return self.peek_time() is not None


class QueueRuntime:
    """What a runtime built on one :class:`EventQueue` keeps besides
    its clock: the queue, the fired count and the per-event listener
    hook (the :class:`~repro.runtime.interface.Runtime` readings)."""

    def __init__(self) -> None:
        self._set_queue(EventQueue())
        self._events_fired = 0
        self._running = False
        #: Optional observability hook called as ``cb(now, pending)``
        #: after each event fires (see repro.obs.audit.LiveAuditor).
        self.on_event_fired: Optional[Callable[[float, int], None]] = None

    def _set_queue(self, queue: EventQueue) -> None:
        self._queue = queue
        # The queue's heap and sequence counter, for inline pushes
        # (both live as long as the queue does).
        self._heap = queue.heap
        self._seq = queue.seq

    def add_event_listener(
        self, listener: Callable[[float, int], None]
    ) -> None:
        """Chain ``listener`` onto :attr:`on_event_fired`.

        The existing hook (if any) keeps firing first; this lets several
        observers -- e.g. a :class:`~repro.obs.audit.LiveAuditor` and a
        test's probe -- share the single callback slot without knowing
        about each other.
        """
        previous = self.on_event_fired
        if previous is None:
            self.on_event_fired = listener
            return

        def chained(now: float, pending: int) -> None:
            previous(now, pending)
            listener(now, pending)

        self.on_event_fired = chained

    @property
    def events_fired(self) -> int:
        """Events fired so far, over every run (current while a
        listener reads it)."""
        return self._events_fired

    @property
    def pending_events(self) -> int:
        """Events scheduled, neither cancelled nor fired yet."""
        return len(self._queue)

    def quiesced(self) -> bool:
        """True when no live events remain."""
        return not self._queue
