"""The neighbor table (Section 2.1).

A table has ``d`` levels of ``b`` entries.  The ``(i, j)``-entry of
node ``x`` may hold a node whose ID shares the rightmost ``i`` digits
with ``x.ID`` and whose ``i``-th digit is ``j`` (we keep one *primary*
neighbor per entry, as in Section 3's simplification).  The table also
tracks reverse neighbors: ``x`` is a reverse ``(i, j)``-neighbor of
``y`` iff ``y`` is the primary ``(i, j)``-neighbor of ``x``.

Storage is a flat ``d*b`` array: cell ``level*b + digit`` holds the
neighbor (or ``None``) in one list, its state in a parallel
``bytearray``, and a sorted list of filled flat indices makes snapshot
iteration order-deterministic without re-sorting.  At 100k nodes the
tables are the biggest resident structure, and reads (``get``) are a
single index.  This is the only table implementation; its reference
semantics are the position-keyed model in
``tests/routing/test_table_spec.py``.

Every mutator validates ``(level, digit)``; an out-of-range position
would otherwise alias another cell of the flat array.  The reads
(``get``, ``state``, ``is_empty``) are the routing hot path and leave
the check to their callers.

The join protocol only ever fills empty entries, and
:meth:`NeighborTable.set_entry` enforces that (overwriting with a
*different* node raises, catching protocol bugs early).
:meth:`NeighborTable.fill_empty` is the trusted fast path for protocol
call sites that have already established emptiness and the suffix
constraint (they derive ``(level, digit)`` from ``csuf`` directly).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import (
    Dict, FrozenSet, Iterator, List, Optional, Set, Tuple, Union,
)

from repro.ids.digits import NodeId
from repro.routing.entry import NeighborState, TableEntry

Position = Tuple[int, int]

#: A snapshot of the filled entries of a table, as carried inside
#: protocol messages (CpRlyMsg, JoinWaitRlyMsg, JoinNotiMsg, ...).
TableSnapshot = Tuple[TableEntry, ...]

#: State byte codes of the flat array: 0 = empty cell.
_STATE_FROM_CODE = (None, NeighborState.T, NeighborState.S)

# Hot-path aliases: ``tuple.__new__(TableEntry, (...))`` builds an
# entry without entering the namedtuple's Python-level ``__new__``
# (about 2x faster, and the mutators below run once per table write in
# the whole simulation); ``_STATE_T`` saves the enum attribute hop in
# the same mutators.
_new_entry = tuple.__new__
_STATE_T = NeighborState.T

#: A reverse-neighbor bucket is a tuple of pointers, in arrival order,
#: until it outgrows this or loses a pointer, and a ``set`` from then
#: on.  The tuple stands for the set its pointers build when added in
#: that order, so every set handed out below has the element order a
#: set-per-bucket table would produce (senders iterate those sets: the
#: order is part of a run's fingerprint) -- at 56 + 8k bytes instead
#: of 216 for up to four pointers and 728 beyond.
_TUPLE_BUCKET_MAX = 8
ReverseBucket = Union[Tuple[NodeId, ...], Set[NodeId]]


class EntryConflictError(RuntimeError):
    """An attempt to overwrite a filled entry with a different node."""


class NeighborTable:
    """Flat-array ``d x b`` neighbor table with reverse-neighbor tracking."""

    __slots__ = (
        "owner", "base", "num_levels", "_cells", "_states", "_positions",
        "_entries", "_reverse", "_snapshot", "_version", "_distinct",
    )

    def __init__(self, owner: NodeId):
        self.owner = owner
        self.base = owner.base
        self.num_levels = owner.num_digits
        size = self.base * self.num_levels
        #: Flat cells: ``_cells[level*base + digit]`` is the neighbor.
        self._cells: List[Optional[NodeId]] = [None] * size
        #: Parallel state bytes (0 empty, 1 = T, 2 = S).
        self._states = bytearray(size)
        #: Sorted flat indices of filled cells (snapshot order).
        self._positions: List[int] = []
        #: :class:`TableEntry` objects parallel to ``_positions`` —
        #: each mutator patches the one affected slot, so the snapshot
        #: tuple below is a plain C-level copy with no per-entry work
        #: (tables mutate one cell at a time but are snapshot whole on
        #: every table-carrying send).
        self._entries: List[TableEntry] = []
        #: Reverse neighbors keyed by flat index (buckets are removed
        #: when emptied — no tombstones survive departures).
        self._reverse: Dict[int, ReverseBucket] = {}
        # Cached position-sorted snapshot tuple; every table-carrying
        # message (CpRlyMsg, JoinWaitRlyMsg, JoinNotiMsg, ...) takes a
        # snapshot, and between mutations they are all identical, so
        # tuple construction is paid once per table change.
        self._snapshot: Optional[TableSnapshot] = None
        #: Bumped on every entry/state mutation; the incremental
        #: consistency checker uses it as a dirty marker.
        self._version = 0
        # (version, distinct_neighbors() as built at that version).
        self._distinct: Optional[Tuple[int, FrozenSet[NodeId]]] = None

    # -- basic access -------------------------------------------------

    def get(self, level: int, digit: int) -> Optional[NodeId]:
        """The paper's ``N_x(i, j)`` (None when the entry is empty).

        Unchecked: the caller guarantees :meth:`has_position`.
        """
        return self._cells[level * self.base + digit]

    def state(self, level: int, digit: int) -> Optional[NeighborState]:
        """``N_x(i, j).state``, or None when the entry is empty.

        Unchecked: the caller guarantees :meth:`has_position`.
        """
        return _STATE_FROM_CODE[self._states[level * self.base + digit]]

    def is_empty(self, level: int, digit: int) -> bool:
        """True iff the ``(level, digit)``-entry is unfilled.

        Unchecked: the caller guarantees :meth:`has_position`.
        """
        return self._cells[level * self.base + digit] is None

    def has_position(self, level: int, digit: int) -> bool:
        """True iff ``(level, digit)`` names a cell of this table."""
        return 0 <= level < self.num_levels and 0 <= digit < self.base

    @property
    def version(self) -> int:
        """Mutation counter (entry and state changes; not reverse sets)."""
        return self._version

    def _check_position(self, level: int, digit: int) -> None:
        if not 0 <= level < self.num_levels:
            raise ValueError(f"level {level} out of range")
        if not 0 <= digit < self.base:
            raise ValueError(f"digit {digit} out of range")

    def _check_suffix(self, level: int, digit: int, node: NodeId) -> None:
        if node.csuf_len(self.owner) < level or node.digit(level) != digit:
            raise ValueError(
                f"{node} does not satisfy the ({level},{digit})-entry "
                f"suffix constraint of {self.owner}"
            )

    def set_entry(
        self,
        level: int,
        digit: int,
        node: NodeId,
        state: NeighborState,
    ) -> None:
        """Fill ``(level, digit)`` with ``node``.

        Idempotent for the same node (the state is updated); raises
        :class:`EntryConflictError` when a different node is already
        present, since the protocol never replaces primary neighbors
        during joins.
        """
        self._check_position(level, digit)
        self._check_suffix(level, digit, node)
        idx = level * self.base + digit
        current = self._cells[idx]
        if current is not None and current != node:
            raise EntryConflictError(
                f"({level},{digit}) of {self.owner} holds {current}, "
                f"refusing to overwrite with {node}"
            )
        i = bisect_left(self._positions, idx)
        entry = _new_entry(TableEntry, (level, digit, node, state))
        if current is None:
            self._positions.insert(i, idx)
            self._entries.insert(i, entry)
        else:
            self._entries[i] = entry
        self._cells[idx] = node
        self._states[idx] = 1 if state is NeighborState.T else 2
        self._snapshot = None
        self._version += 1

    def fill_empty(
        self,
        level: int,
        digit: int,
        node: NodeId,
        state: NeighborState,
    ) -> None:
        """Trusted fill of a known-empty entry (protocol hot path).

        Callers must have established both that the entry is empty and
        that ``node`` satisfies the suffix constraint — which the join
        protocol's fill sites do structurally, deriving ``(level,
        digit)`` from ``csuf(node, owner)`` right before calling.
        """
        idx = level * self.base + digit
        i = bisect_left(self._positions, idx)
        self._positions.insert(i, idx)
        self._entries.insert(
            i, _new_entry(TableEntry, (level, digit, node, state))
        )
        self._cells[idx] = node
        self._states[idx] = 1 if state is _STATE_T else 2
        self._snapshot = None
        self._version += 1

    def load_sorted(self, items: "List[TableEntry]") -> None:
        """Trusted bulk fill of an *empty* table (oracle setup path).

        ``items`` must be :class:`TableEntry` objects in strictly
        ascending ``(level, digit)`` order with valid positions and
        suffixes — exactly how
        :func:`repro.routing.oracle.build_consistent_tables` emits
        them — so the sorted structures are plain appends with no
        per-entry bisect or checks, and the entries are stored as
        given.
        """
        if self._positions:
            raise RuntimeError("load_sorted requires an empty table")
        base = self.base
        cells = self._cells
        states = self._states
        append_pos = self._positions.append
        t_state = NeighborState.T
        for entry in items:
            level, digit, node, state = entry
            idx = level * base + digit
            append_pos(idx)
            cells[idx] = node
            states[idx] = 1 if state is t_state else 2
        self._entries.extend(items)
        self._snapshot = None
        self._version += 1

    def load_reverse(self, acc: Dict[int, List[NodeId]]) -> None:
        """Trusted wholesale install of reverse neighbors keyed by
        flat index (oracle setup path); takes ownership of ``acc``.

        Every key must be a valid flat position and every value the
        distinct pointers in the order repeated :meth:`add_reverse`
        calls would have delivered them — which the oracle guarantees
        by accumulating straight off just-built primary entries.
        """
        for idx, pointers in acc.items():
            acc[idx] = (
                tuple(pointers)
                if len(pointers) <= _TUPLE_BUCKET_MAX
                else set(pointers)
            )
        self._reverse = acc

    def set_state(self, level: int, digit: int, state: NeighborState) -> None:
        """Update the recorded state of a filled entry."""
        self._check_position(level, digit)
        idx = level * self.base + digit
        node = self._cells[idx]
        if node is None:
            raise KeyError(f"entry ({level},{digit}) is empty")
        i = bisect_left(self._positions, idx)
        self._entries[i] = _new_entry(TableEntry, (level, digit, node, state))
        self._states[idx] = 1 if state is _STATE_T else 2
        self._snapshot = None
        self._version += 1

    def replace_entry(
        self,
        level: int,
        digit: int,
        node: NodeId,
        state: NeighborState,
    ) -> Optional[NodeId]:
        """Overwrite ``(level, digit)`` with ``node``, returning the
        previous occupant.

        Used by the leave/failure-recovery protocols, which substitute
        a departed primary neighbor with another member of the same
        suffix class -- the only situation where the join protocol's
        fill-only discipline is relaxed.
        """
        self._check_position(level, digit)
        self._check_suffix(level, digit, node)
        idx = level * self.base + digit
        previous = self._cells[idx]
        i = bisect_left(self._positions, idx)
        entry = _new_entry(TableEntry, (level, digit, node, state))
        if previous is None:
            self._positions.insert(i, idx)
            self._entries.insert(i, entry)
        else:
            self._entries[i] = entry
        self._cells[idx] = node
        self._states[idx] = 1 if state is NeighborState.T else 2
        self._snapshot = None
        self._version += 1
        return previous

    def clear_entry(self, level: int, digit: int) -> Optional[NodeId]:
        """Empty ``(level, digit)``, returning the previous occupant.

        Used when the last member of an entry's suffix class departs.
        """
        self._check_position(level, digit)
        idx = level * self.base + digit
        previous = self._cells[idx]
        if previous is not None:
            self._cells[idx] = None
            self._states[idx] = 0
            i = bisect_left(self._positions, idx)
            del self._positions[i]
            del self._entries[i]
            self._snapshot = None
            self._version += 1
        return previous

    def positions_of(self, node: NodeId) -> List[Tuple[int, int]]:
        """All ``(level, digit)`` positions currently holding ``node``
        (in position order)."""
        base = self.base
        cells = self._cells
        return [
            divmod(idx, base) for idx in self._positions
            if cells[idx] == node
        ]

    # -- reverse neighbors ---------------------------------------------

    def add_reverse(self, level: int, digit: int, node: NodeId) -> None:
        """Record that ``node`` has us as its ``(level, digit)`` primary
        neighbor (the paper's ``R_x(i, j)``)."""
        # Bounds check inlined: this runs once per table fill anywhere
        # in the network (oracle setup plus every protocol fill).
        if not (0 <= level < self.num_levels and 0 <= digit < self.base):
            self._check_position(level, digit)
        idx = level * self.base + digit
        bucket = self._reverse.get(idx)
        if bucket is None:
            self._reverse[idx] = (node,)
        elif bucket.__class__ is set:
            bucket.add(node)
        elif node not in bucket:
            bucket += (node,)
            self._reverse[idx] = (
                bucket if len(bucket) <= _TUPLE_BUCKET_MAX else set(bucket)
            )

    def _drop_reverse(self, idx: int, node: NodeId) -> None:
        bucket = self._reverse.get(idx)
        if bucket is None:
            return
        if bucket.__class__ is not set:
            if node not in bucket:
                return
            bucket = self._reverse[idx] = set(bucket)
        bucket.discard(node)
        if not bucket:
            del self._reverse[idx]

    def remove_reverse(self, level: int, digit: int, node: NodeId) -> None:
        """Forget that ``node`` points at us at ``(level, digit)``."""
        self._check_position(level, digit)
        self._drop_reverse(level * self.base + digit, node)

    def remove_reverse_everywhere(self, node: NodeId) -> None:
        """Forget ``node`` from every reverse-neighbor set (it left)."""
        for idx in list(self._reverse):
            self._drop_reverse(idx, node)

    def reverse_positions(self) -> List[Tuple[int, int]]:
        """Positions with at least one reverse neighbor recorded."""
        base = self.base
        return [divmod(idx, base) for idx in sorted(self._reverse)]

    def reverse_neighbors(self, level: int, digit: int) -> Set[NodeId]:
        """Nodes recorded as pointing at us at ``(level, digit)`` (copy)."""
        bucket = self._reverse.get(level * self.base + digit, ())
        # Copy of the set the bucket stands for, not of the tuple: a
        # set copy lays its elements out by the source set's table.
        return set(bucket if bucket.__class__ is set else set(bucket))

    def all_reverse_neighbors(self) -> Set[NodeId]:
        """Every recorded reverse neighbor, excluding the owner."""
        out: Set[NodeId] = set()
        for bucket in self._reverse.values():
            out |= bucket if bucket.__class__ is set else set(bucket)
        out.discard(self.owner)
        return out

    # -- iteration / snapshots ------------------------------------------

    def entries(self) -> Iterator[TableEntry]:
        """All filled entries (order deterministic: by position)."""
        return iter(self.snapshot())

    def entries_at_level(self, level: int) -> List[TableEntry]:
        """Filled entries at ``level``, in digit order."""
        base = self.base
        cells = self._cells
        states = self._states
        out = []
        for digit in range(base):
            idx = level * base + digit
            node = cells[idx]
            if node is not None:
                out.append(
                    TableEntry(level, digit, node, _STATE_FROM_CODE[states[idx]])
                )
        return out

    def filled_count(self) -> int:
        """Number of filled entries."""
        return len(self._positions)

    def distinct_neighbors(self) -> FrozenSet[NodeId]:
        """The distinct nodes stored anywhere in the table.

        Cached per :attr:`version`, like :meth:`snapshot`: callers
        share one frozen set until the table changes.  Senders iterate
        it, and it iterates exactly as :meth:`new_neighbor_set` does:
        both insert the cells one by one in position order.
        """
        cached = self._distinct
        if cached is None or cached[0] != self._version:
            cached = self._distinct = (
                self._version,
                frozenset(map(self._cells.__getitem__, self._positions)),
            )
        return cached[1]

    def new_neighbor_set(self) -> Set[NodeId]:
        """A new, mutable set of the distinct neighbors, iterating as
        :meth:`distinct_neighbors` does.  (``set(distinct_neighbors())``
        may not: a copy of a set is laid out afresh.)"""
        return set(map(self._cells.__getitem__, self._positions))

    def snapshot(self) -> TableSnapshot:
        """Immutable copy of the filled entries, for message payloads.

        The tuple is cached between mutations; callers receive the same
        object, which is safe because snapshots are immutable.
        """
        cached = self._snapshot
        if cached is None:
            cached = tuple(self._entries)
            self._snapshot = cached
        return cached

    def snapshot_levels(self, low: int, high: int) -> TableSnapshot:
        """Entries with ``low <= level <= high`` (Section 6.2 reduction:
        a JoinNotiMsg only needs levels noti_level..csuf)."""
        return tuple(
            entry for entry in self.snapshot() if low <= entry.level <= high
        )

    def __len__(self) -> int:
        return len(self._positions)


def format_table(table: NeighborTable, only_levels: Optional[int] = None) -> str:
    """Render a table in the style of the paper's Figure 1.

    Levels are printed highest first; each cell shows the neighbor's ID
    (with the entry's desired suffix to the right of the grid implied by
    the row/column position).  Empty cells are dashes.
    """
    owner = table.owner
    levels = table.num_levels if only_levels is None else only_levels
    width = owner.num_digits
    header_cells = " ".join(
        f"level {i}".center(width + 4) for i in range(levels - 1, -1, -1)
    )
    lines = [f"Neighbor table of node {owner}  (b={table.base}, d={table.num_levels})"]
    lines.append("     " + header_cells)
    for digit in range(table.base):
        row = []
        for level in range(levels - 1, -1, -1):
            node = table.get(level, digit)
            cell = str(node) if node is not None else "-" * width
            marker = "*" if node == owner else " "
            row.append(f"{cell}{marker}".center(width + 4))
        lines.append(f"  {digit:>2} " + " ".join(row))
    return "\n".join(lines)
