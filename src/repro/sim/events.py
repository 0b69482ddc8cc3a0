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
the :class:`Event` allocation entirely.

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
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
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
    """A stable min-heap of events."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._next_seq = 0
        # Live (non-cancelled) entry count, so __len__ is O(1); the
        # scheduler reports queue depth after every event, which was
        # quadratic when this required a heap scan.
        self._live = 0
        # Cancelled entries still sitting in the heap.
        self._dead = 0

    # -- scheduling ----------------------------------------------------

    def push(
        self,
        time: float,
        action: Callable[..., None],
        payload: Any = None,
    ) -> Event:
        """Schedule ``action`` at virtual time ``time``; returns the event."""
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time, seq, action, payload)
        event.queue = self
        heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def push_fire(
        self,
        time: float,
        action: Callable[..., None],
        payload: Any = None,
    ) -> None:
        """Fire-and-forget schedule: no :class:`Event` handle, so the
        entry cannot be cancelled.  The transport uses this for message
        deliveries — the bulk of all scheduling — saving an object
        allocation per send."""
        seq = self._next_seq
        self._next_seq = seq + 1
        heappush(self._heap, (time, seq, action, payload))
        self._live += 1

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
        heap = self._heap
        events: List[Event] = []
        seq = self._next_seq
        heaped = len(heap)
        for time, action, payload in entries:
            event = Event(time, seq, action, payload)
            event.queue = self
            events.append(event)
            heap.append((time, seq, event))
            seq += 1
        self._next_seq = seq
        added = len(events)
        self._live += added
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

    def pop_entry(self) -> Optional[tuple]:
        """Remove and return the earliest live entry, or None.

        The raw-tuple fast path for run loops: returns either a
        ``(time, seq, event)`` or a fire-and-forget ``(time, seq,
        action, payload)`` entry (discriminate on ``len``), skipping
        cancelled events.
        """
        heap = self._heap
        while heap:
            entry = heappop(heap)
            if len(entry) == 3:
                event = entry[2]
                if event.cancelled:
                    self._dead -= 1
                    continue
                event.queue = _DONE  # later cancel() is a no-op
            self._live -= 1
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
        heap = self._heap
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
        self._live -= 1
        dead = self._dead + 1
        if dead > _COMPACT_MIN_DEAD and dead > self._live:
            self._compact()
        else:
            self._dead = dead

    def _compact(self) -> None:
        """Drop every cancelled entry and re-heapify.

        O(total entries), amortized O(1) per cancel by the doubling
        threshold in :meth:`note_cancelled`.  Relative order of the
        survivors is untouched — the heap's pop sequence depends only
        on its contents."""
        live_heap = [
            e for e in self._heap if len(e) == 4 or not e[2].cancelled
        ]
        heapify(live_heap)
        self._heap = live_heap
        self._dead = 0

    # -- introspection -------------------------------------------------

    @property
    def dead_entries(self) -> int:
        """Cancelled entries currently tombstoned in the queue."""
        return self._dead

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self.peek_time() is not None
