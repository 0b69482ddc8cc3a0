"""Pre-optimization reference implementations of the hot paths.

Every function here reproduces, unchanged, the behaviour the
corresponding method had before the hot-path optimization pass; the
optimized methods must be *observationally identical* (same results,
same message counts, same final tables) -- only faster.

:func:`use_pre_pr_hot_path` temporarily swaps the naive versions back
in, which is how ``benchmarks/bench_core_speed.py`` measures the
pre-PR baseline inside the same process, and how the semantics tests
check that a fixed-seed simulation is unaffected by the pass.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.ids.digits import _DIGIT_CHARS, NodeId
from repro.network.transport import Transport, UnknownDestinationError
from repro.routing.entry import NeighborState
from repro.routing.table import (
    EntryConflictError,
    NeighborTable,
    TableEntry,
)
from repro.sim.scheduler import SimulationError, Simulator

Position = Tuple[int, int]


# ---------------------------------------------------------------------------
# NodeId (repro.ids.digits) -- pre-PR digit loops, no caches


def naive_csuf_len(a: NodeId, b: NodeId) -> int:
    """Reference ``|csuf(a, b)|``: plain digit loop, no fast paths."""
    n = 0
    for x, y in zip(a.digits, b.digits):
        if x != y:
            break
        n += 1
    return n


def naive_str(a: NodeId) -> str:
    """Reference printable form: rebuilt from digits on every call."""
    return "".join(_DIGIT_CHARS[dg] for dg in reversed(a.digits))


def naive_to_int(a: NodeId) -> int:
    """Reference numeric value: recomputed on every call."""
    value = 0
    for dg in reversed(a.digits):
        value = value * a.base + dg
    return value


def _naive_eq(self: NodeId, other: object):
    if not isinstance(other, NodeId):
        return NotImplemented
    return self.digits == other.digits and self.base == other.base


def _naive_ne(self: NodeId, other: object):
    eq = _naive_eq(self, other)
    if eq is NotImplemented:
        return eq
    return not eq


def _naive_lt(self: NodeId, other: NodeId) -> bool:
    return naive_to_int(self) < naive_to_int(other)


# ---------------------------------------------------------------------------
# NeighborTable (repro.routing.table) -- re-sorted, uncached snapshot
# rebuilt from scratch on every call (the pre-PR cost model: a dict of
# position tuples, sorted and boxed into entries per snapshot).


def _table_items(table) -> Dict[Position, Tuple[NodeId, "NeighborState"]]:
    """Filled entries as a position-keyed dict, whatever the backend."""
    entries = getattr(table, "_entries", None)
    if isinstance(entries, dict):  # DictNeighborTable's sparse storage
        return dict(entries)
    base = table.base
    return {
        divmod(idx, base): (
            table._cells[idx],
            NeighborState.T if table._states[idx] == 1 else NeighborState.S,
        )
        for idx in table._positions
    }


def _naive_entries(self) -> Iterator[TableEntry]:
    items = _table_items(self)
    for (level, digit) in sorted(items):
        node, state = items[(level, digit)]
        yield TableEntry(level, digit, node, state)


def _naive_snapshot(self) -> Tuple[TableEntry, ...]:
    return tuple(_naive_entries(self))


def _naive_snapshot_levels(self, low: int, high: int) -> Tuple[TableEntry, ...]:
    return tuple(
        entry for entry in _naive_entries(self) if low <= entry.level <= high
    )


# ---------------------------------------------------------------------------
# Transport (repro.network.transport) -- no pairwise latency memo


def _naive_send(self: Transport, dst, message) -> None:
    if dst not in self._nodes:
        raise UnknownDestinationError(str(dst))
    self.stats.on_send(message)
    delay = self.latency_model.latency(message.sender, dst)
    target = self._nodes[dst]
    if self._tracer is None:
        self.runtime.schedule(delay, target.receive, message)
    else:
        self._send_traced(dst, message, delay, target)


# ---------------------------------------------------------------------------
# Simulator (repro.sim.scheduler) -- attribute chains inside the loop


def _naive_run(self: Simulator, until=None, max_events=None) -> int:
    if self._running:
        raise SimulationError("run() is not reentrant")
    self._running = True
    fired = 0
    on_event_fired = self.on_event_fired
    try:
        while True:
            if max_events is not None and fired >= max_events:
                break
            next_time = self._queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                break
            event = self._queue.pop()
            assert event is not None
            self._now = event.time
            event.fire()
            fired += 1
            self._events_fired += 1
            if on_event_fired is not None:
                on_event_fired(self._now, len(self._queue))
    finally:
        self._running = False
    if until is not None and self._now < until and not self._queue:
        self._now = until
    return fired


# ---------------------------------------------------------------------------
# ProtocolNode (repro.protocol.node) -- unhoisted Check_Ngh_Table


def _naive_check_ngh_table(self, snapshot) -> None:
    from repro.protocol.status import NodeStatus

    for entry in snapshot:
        u = entry.node
        if u == self.node_id:
            continue
        k = self._csuf(u)
        current = self.table.get(k, u.digit(k))
        if current is None:
            self._fill_entry(k, u.digit(k), u, entry.state)
        elif current != u:
            self.backups.offer(k, u.digit(k), u)
        if (
            self.status is NodeStatus.NOTIFYING
            and k >= self.noti_level
            and u not in self.q_notified
        ):
            self._send_join_noti(u, k)


def _naive_offer(self, level: int, digit: int, node) -> bool:
    if node == self.owner:
        return False
    if naive_csuf_len(node, self.owner) < level or node.digit(level) != digit:
        return False
    # Key layout follows the live store (flat index) so stores written
    # under the patch read back correctly after it exits.
    bucket = self._backups.setdefault(level * self._base + digit, [])
    if node in bucket or len(bucket) >= self.capacity:
        return False
    bucket.append(node)
    return True


def _naive_nodeid_csuf_len(self: NodeId, other: NodeId) -> int:
    return naive_csuf_len(self, other)


def _naive_nodeid_str(self: NodeId) -> str:
    return naive_str(self)


def _naive_nodeid_to_int(self: NodeId) -> int:
    return naive_to_int(self)


# ---------------------------------------------------------------------------
# Dict-backed NeighborTable: the pre-PR sparse representation, kept as a
# second live backend so property tests can drive whole protocol runs
# through both and assert byte-identical behaviour.


class DictNeighborTable(NeighborTable):
    """Sparse ``Dict[(level, digit)] -> (node, state)`` neighbor table.

    The storage layout the array-backed :class:`NeighborTable` replaced.
    Same public API and the same observable semantics (snapshot order,
    conflict rules, reverse-neighbor bookkeeping), so a fixed-seed run
    is bit-for-bit identical on either backend — which is exactly what
    ``tests/properties/test_table_backends.py`` asserts.  Protocol fast
    paths detect the array backend by exact type and fall back to the
    public API here, so the equivalence is exercised end to end.
    """

    __slots__ = ("_entries",)

    def __init__(self, owner: NodeId):
        # Deliberately skip NeighborTable.__init__: this backend has no
        # flat arrays, and leaving the parent slots unset makes any
        # accidental `_cells` access fail loudly.
        self.owner = owner
        self.base = owner.base
        self.num_levels = owner.num_digits
        self._entries: Dict[Position, Tuple[NodeId, NeighborState]] = {}
        self._reverse: Dict[Position, Set[NodeId]] = {}
        self._snapshot = None
        self._version = 0

    # -- basic access -------------------------------------------------

    def get(self, level: int, digit: int) -> Optional[NodeId]:
        """The neighbor at ``(level, digit)``, or None."""
        cell = self._entries.get((level, digit))
        return cell[0] if cell is not None else None

    def state(self, level: int, digit: int) -> Optional[NeighborState]:
        """The state at ``(level, digit)``, or None when empty."""
        cell = self._entries.get((level, digit))
        return cell[1] if cell is not None else None

    def is_empty(self, level: int, digit: int) -> bool:
        """True when ``(level, digit)`` has no entry."""
        return (level, digit) not in self._entries

    def set_entry(
        self, level: int, digit: int, node: NodeId, state: NeighborState
    ) -> None:
        """Validated entry write; refuses to overwrite a different node."""
        self._check_position(level, digit)
        self._check_suffix(level, digit, node)
        current = self._entries.get((level, digit))
        if current is not None and current[0] != node:
            raise EntryConflictError(
                f"({level},{digit}) of {self.owner} holds {current[0]}, "
                f"refusing to overwrite with {node}"
            )
        self._entries[(level, digit)] = (node, state)
        self._snapshot = None
        self._version += 1

    def fill_empty(
        self, level: int, digit: int, node: NodeId, state: NeighborState
    ) -> None:
        """Trusted write into a known-empty, known-valid entry."""
        self._entries[(level, digit)] = (node, state)
        self._snapshot = None
        self._version += 1

    def load_sorted(self, items) -> None:
        """Trusted bulk fill of an empty table (oracle setup path)."""
        if self._entries:
            raise RuntimeError("load_sorted requires an empty table")
        entries = self._entries
        for level, digit, node, state in items:
            entries[(level, digit)] = (node, state)
        self._snapshot = None
        self._version += 1

    def load_reverse(self, acc) -> None:
        """Wholesale reverse install; the oracle hands pointer lists
        keyed by flat index, this backend keeps position-keyed sets."""
        base = self.base
        self._reverse = {
            (idx // base, idx % base): set(bucket)
            for idx, bucket in acc.items()
        }

    def set_state(self, level: int, digit: int, state: NeighborState) -> None:
        """Flip the state of an existing entry."""
        cell = self._entries.get((level, digit))
        if cell is None:
            raise KeyError(f"entry ({level},{digit}) is empty")
        self._entries[(level, digit)] = (cell[0], state)
        self._snapshot = None
        self._version += 1

    def replace_entry(
        self, level: int, digit: int, node: NodeId, state: NeighborState
    ) -> Optional[NodeId]:
        """Overwrite ``(level, digit)``; returns the displaced node."""
        self._check_position(level, digit)
        self._check_suffix(level, digit, node)
        previous = self.get(level, digit)
        self._entries[(level, digit)] = (node, state)
        self._snapshot = None
        self._version += 1
        return previous

    def clear_entry(self, level: int, digit: int) -> Optional[NodeId]:
        """Empty ``(level, digit)``; returns the removed node."""
        self._check_position(level, digit)
        cell = self._entries.pop((level, digit), None)
        self._snapshot = None
        self._version += 1
        return cell[0] if cell is not None else None

    def positions_of(self, node: NodeId) -> List[Position]:
        """All positions currently holding ``node``."""
        return [
            position
            for position, (occupant, _) in self._entries.items()
            if occupant == node
        ]

    # -- reverse neighbors ---------------------------------------------

    def add_reverse(self, level: int, digit: int, node: NodeId) -> None:
        """Record ``node`` as a reverse neighbor at ``(level, digit)``."""
        self._check_position(level, digit)
        self._reverse.setdefault((level, digit), set()).add(node)

    def remove_reverse(self, level: int, digit: int, node: NodeId) -> None:
        """Drop ``node`` from the reverse set at ``(level, digit)``."""
        bucket = self._reverse.get((level, digit))
        if bucket is not None:
            bucket.discard(node)
            if not bucket:
                del self._reverse[(level, digit)]

    def remove_reverse_everywhere(self, node: NodeId) -> None:
        """Drop ``node`` from every reverse set."""
        for position in list(self._reverse):
            self.remove_reverse(position[0], position[1], node)

    def reverse_positions(self) -> List[Position]:
        """Positions with a non-empty reverse set, sorted."""
        return sorted(self._reverse)

    def reverse_neighbors(self, level: int, digit: int) -> Set[NodeId]:
        """Copy of the reverse set at ``(level, digit)``."""
        return set(self._reverse.get((level, digit), ()))

    # -- iteration / snapshots ------------------------------------------

    def entries_at_level(self, level: int) -> List[TableEntry]:
        """Filled entries of one level, in digit order."""
        out = []
        for digit in range(self.base):
            cell = self._entries.get((level, digit))
            if cell is not None:
                out.append(TableEntry(level, digit, cell[0], cell[1]))
        return out

    def filled_count(self) -> int:
        """Number of filled entries."""
        return len(self._entries)

    def distinct_neighbors(self) -> Set[NodeId]:
        """Set of distinct nodes appearing in the table."""
        return {node for node, _ in self._entries.values()}

    def snapshot(self) -> Tuple[TableEntry, ...]:
        """Cached tuple of entries in (level, digit) order."""
        cached = self._snapshot
        if cached is None:
            entries = self._entries
            cached = tuple(
                TableEntry(level, digit, *entries[(level, digit)])
                for (level, digit) in sorted(entries)
            )
            self._snapshot = cached
        return cached

    def __len__(self) -> int:
        return len(self._entries)


#: Modules that instantiate tables by the module-global name
#: ``NeighborTable`` (the simulator tier; the wire tier builds tables
#: via ``table_from_wire``, outside any hot path).
_TABLE_CREATION_MODULES = (
    "repro.protocol.node",
    "repro.protocol.network_init",
    "repro.routing.oracle",
    "repro.baselines.multicast_join",
)


@contextlib.contextmanager
def use_dict_tables():
    """Build every new table on the dict backend, temporarily.

    Rebinds the ``NeighborTable`` name inside the modules that create
    tables, so networks constructed inside the context run entirely on
    :class:`DictNeighborTable` while existing tables are untouched.
    Used by the backend-equivalence property and golden-trace tests.
    """
    import importlib

    modules = [importlib.import_module(name) for name in _TABLE_CREATION_MODULES]
    saved = [module.NeighborTable for module in modules]
    try:
        for module in modules:
            module.NeighborTable = DictNeighborTable
        yield
    finally:
        for module, original in zip(modules, saved):
            module.NeighborTable = original


@contextlib.contextmanager
def use_pre_pr_hot_path():
    """Swap the pre-optimization implementations back in, temporarily.

    Patches the hot-path methods of :class:`NodeId`,
    :class:`NeighborTable`, :class:`Transport`, :class:`Simulator`,
    ``ProtocolNode`` and ``BackupStore`` with the reference versions
    above, restoring the optimized ones on exit.  Also disables the
    transport latency memo and the hierarchical-latency pair memo for
    networks *created inside* the context (existing transports keep
    their memo dict, so only use this around whole-run workloads).
    """
    from repro.protocol.node import ProtocolNode
    from repro.routing.backups import BackupStore
    from repro.topology.latency import HierarchicalLatency

    def _naive_hier_latency(self, u: int, v: int) -> float:
        if u == v:
            return 0.0
        return self._compute_latency(u, v)

    patches = [
        (NodeId, "csuf_len", _naive_nodeid_csuf_len),
        (NodeId, "__str__", _naive_nodeid_str),
        (NodeId, "to_int", _naive_nodeid_to_int),
        (NodeId, "__eq__", _naive_eq),
        (NodeId, "__ne__", _naive_ne),
        (NodeId, "__lt__", _naive_lt),
        (NeighborTable, "entries", _naive_entries),
        (NeighborTable, "snapshot", _naive_snapshot),
        (NeighborTable, "snapshot_levels", _naive_snapshot_levels),
        (Transport, "send", _naive_send),
        (Simulator, "run", _naive_run),
        (ProtocolNode, "_check_ngh_table", _naive_check_ngh_table),
        (BackupStore, "offer", _naive_offer),
        (HierarchicalLatency, "latency", _naive_hier_latency),
    ]
    saved = [(cls, name, cls.__dict__[name]) for cls, name, _ in patches]
    try:
        for cls, name, impl in patches:
            setattr(cls, name, impl)
        yield
    finally:
        for cls, name, impl in saved:
            setattr(cls, name, impl)


__all__ = [
    "DictNeighborTable",
    "naive_csuf_len",
    "naive_str",
    "naive_to_int",
    "use_dict_tables",
    "use_pre_pr_hot_path",
]
