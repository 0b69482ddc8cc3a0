"""Batched scheduling and tombstone compaction.

The batched-queue features must be pure throughput devices: for any
entry sequence, the pop order is identical to one-by-one pushes on the
plain heap, before or after compaction.
"""

import random

from repro.sim.events import _COMPACT_MIN_DEAD, EventQueue
from repro.sim.scheduler import Simulator


def _drain(queue):
    """Pop everything; returns the (time, seq, payload) sequence."""
    out = []
    while True:
        event = queue.pop()
        if event is None:
            return out
        out.append((event.time, event.seq, event.payload))


def _random_entries(rng, count, horizon=100.0):
    return [
        (rng.uniform(0.0, horizon), None, index) for index in range(count)
    ]


class TestPushMany:
    def test_matches_individual_pushes(self):
        rng = random.Random(0)
        entries = _random_entries(rng, 200)
        one_by_one = EventQueue()
        for time, action, payload in entries:
            one_by_one.push(time, action, payload)
        batched = EventQueue()
        batched.push_many(entries)
        assert _drain(batched) == _drain(one_by_one)

    def test_simultaneous_entries_fire_in_batch_order(self):
        queue = EventQueue()
        queue.push_many([(5.0, None, tag) for tag in "abcde"])
        assert [payload for _, _, payload in _drain(queue)] == list("abcde")

    def test_batch_interleaves_with_existing_entries(self):
        queue = EventQueue()
        queue.push(2.0, None, "old-2")
        queue.push(4.0, None, "old-4")
        queue.push_many([(1.0, None, "new-1"), (3.0, None, "new-3")])
        assert [payload for _, _, payload in _drain(queue)] == [
            "new-1", "old-2", "new-3", "old-4",
        ]

    def test_returned_events_are_cancellable(self):
        queue = EventQueue()
        events = queue.push_many([(float(t), None, t) for t in range(6)])
        events[2].cancel()
        events[4].cancel()
        assert [payload for _, _, payload in _drain(queue)] == [0, 1, 3, 5]


class TestCompaction:
    def test_tombstones_are_compacted(self):
        queue = EventQueue()
        live = queue.push(1e9, None, "survivor")
        cancelled = [
            queue.push(float(t), None, t)
            for t in range(4 * _COMPACT_MIN_DEAD)
        ]
        for event in cancelled:
            event.cancel()
        # Dead entries never outnumber live by more than the
        # compaction threshold allows.
        assert queue.dead_entries <= _COMPACT_MIN_DEAD + 1
        assert len(queue) == 1
        assert _drain(queue) == [(1e9, live.seq, "survivor")]

    def test_compaction_preserves_pop_order(self):
        rng = random.Random(4)
        entries = _random_entries(rng, 400)
        reference = EventQueue()
        compacted = EventQueue()
        keep = []
        for time, action, payload in entries:
            event = compacted.push(time, action, payload)
            if payload % 3 == 0:
                keep.append(payload)
                reference.push(time, None, payload)
                continue
            event.cancel()
        drained = [payload for _, _, payload in _drain(compacted)]
        assert drained == [payload for _, _, payload in _drain(reference)]
        assert sorted(drained) == sorted(keep)


class TestSchedulerBatching:
    def test_schedule_many_equals_schedule_loop(self):
        fired_loop, fired_batch = [], []
        loop, batch = Simulator(), Simulator()
        for index in range(20):
            delay = (index * 7) % 5 + 0.5
            loop.schedule(delay, fired_loop.append, index)
        batch.schedule_many(
            ((index * 7) % 5 + 0.5, fired_batch.append, index)
            for index in range(20)
        )
        loop.run()
        batch.run()
        assert fired_batch == fired_loop

    def test_schedule_many_rejects_past_delays(self):
        simulator = Simulator()
        try:
            simulator.schedule_many([(-1.0, None, None)])
        except Exception as exc:
            assert "past" in str(exc)
        else:
            raise AssertionError("negative delay accepted")
