"""Layer microbenchmarks on inputs harvested from a workload cycle:
the IDs it sampled, the tables it left, the messages and task configs
it sent.  Each returns one number; the loop overhead (a few tens of
nanoseconds per item) is included and is the same on both sides of any
comparison.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Any, Callable, Dict, List, Sequence

from repro.exec import decode_task_value, encode_task_value
from repro.net.control import ControlClient
from repro.net.wire import decode_frame, encode_frame, frame_message, msg_frame
from repro.routing import NeighborTable
from repro.runtime.codec import decode_message, encode_message
from repro.sim.events import EventQueue

REPEATS = 3


def _per_item(body: Callable[[], Any], items: int) -> float:
    """Median seconds per item of ``body`` (which handles ``items``)."""
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        body()
        samples.append((time.perf_counter() - start) / items)
    return statistics.median(samples)


def csuf_ns(ids: Sequence[Any], pairs: int = 200_000) -> float:
    """``NodeId.csuf_len`` over random pairs of workload IDs."""
    rng = random.Random(0)
    left = [rng.choice(ids) for _ in range(pairs)]
    right = [rng.choice(ids) for _ in range(pairs)]

    def body() -> None:
        for a, b in zip(left, right):
            a.csuf_len(b)

    return _per_item(body, pairs) * 1e9


def table_metrics(tables: Sequence[NeighborTable]) -> Dict[str, float]:
    """get / set / snapshot on (copies of) the tables the run left."""
    tables = list(tables)[:400]
    entries = [list(table.entries()) for table in tables]
    cells = sum(len(e) for e in entries)
    levels, base = tables[0].num_levels, tables[0].base

    def gets() -> None:
        for table in tables:
            get = table.get
            for level in range(levels):
                for digit in range(base):
                    get(level, digit)

    rebuilt: List[NeighborTable] = []

    def sets() -> None:
        rebuilt.clear()
        for table, filled in zip(tables, entries):
            fresh = NeighborTable(table.owner)
            for entry in filled:
                fresh.set_entry(entry.level, entry.digit, entry.node, entry.state)
            rebuilt.append(fresh)

    set_ns = _per_item(sets, cells) * 1e9

    def snapshots() -> None:
        for table in rebuilt:
            table.snapshot()

    # The tables in ``rebuilt`` were just filled: their first snapshot
    # is cold (tuple built), every later one hot (cached).
    start = time.perf_counter()
    snapshots()
    cold = (time.perf_counter() - start) / len(rebuilt)
    return {
        "routing.table_get_ns": _per_item(gets, len(tables) * levels * base) * 1e9,
        "routing.table_set_ns": set_ns,
        "routing.snapshot_cold_us": cold * 1e6,
        "routing.snapshot_hot_ns": _per_item(snapshots, len(rebuilt)) * 1e9,
    }


def queue_push_pop_ns(entries: int = 200_000) -> float:
    """``push_fire`` then ``pop_entry`` of ``entries`` random-time events."""
    rng = random.Random(0)
    times = [rng.random() * 1000.0 for _ in range(entries)]

    def action() -> None:
        pass

    def body() -> None:
        queue = EventQueue()
        push, pop = queue.push_fire, queue.pop_entry
        for at in times:
            push(at, action)
        while pop() is not None:
            pass

    return _per_item(body, entries) * 1e9


def wire_metrics(messages: Sequence[Any]) -> Dict[str, float]:
    """Codec and frame cost over messages seen at ``DatagramTransport.send``."""
    messages = list(messages)
    encoded = [encode_message(m) for m in messages]
    frames = [encode_frame(msg_frame(i, m)) for i, m in enumerate(messages)]
    n = len(messages)
    return {
        "runtime.codec_encode_us": _per_item(
            lambda: [encode_message(m) for m in messages], n) * 1e6,
        "runtime.codec_decode_us": _per_item(
            lambda: [decode_message(w) for w in encoded], n) * 1e6,
        "net.frame_encode_us": _per_item(
            lambda: [encode_frame(msg_frame(7, m)) for m in messages], n) * 1e6,
        "net.frame_decode_us": _per_item(
            lambda: [frame_message(decode_frame(f)) for f in frames], n) * 1e6,
        "net.frame_bytes_mean": sum(len(f) for f in frames) / n,
    }


def task_metrics(configs: Sequence[Any], results: Sequence[Any]) -> Dict[str, float]:
    """Task codec cost: configs out, results back."""
    wire = [encode_task_value(r) for r in results]
    rounds = 50
    return {
        "exec.task_encode_us": _per_item(
            lambda: [encode_task_value(c) for _ in range(rounds) for c in configs],
            rounds * len(configs)) * 1e6,
        "exec.task_decode_us": _per_item(
            lambda: [decode_task_value(w) for _ in range(rounds) for w in wire],
            rounds * len(wire)) * 1e6,
    }


def control_rtt_ms(worker, pings: int = 200) -> float:
    """p50 of ``pings`` ControlClient round trips to a live worker."""
    samples = []
    with ControlClient() as client:
        for _ in range(pings):
            start = time.perf_counter()
            client.request(worker, "ping")
            samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3
