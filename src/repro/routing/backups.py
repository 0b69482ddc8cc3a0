"""Backup neighbors and fault-tolerant routing (footnote 6).

The paper keeps one *primary* neighbor per entry for the consistency
analysis, but notes that "if multiple nodes exist with the desired
suffix ... a subset of these nodes may be stored in the entry", with
the extras used "for fault tolerant routing [13]" (Tapestry).

:class:`BackupStore` holds those extras: when the join protocol sees a
suffix-qualified node for an entry that is already filled (the
``Check_Ngh_Table`` / ``JoinNotiMsg`` paths), the node is remembered
as a backup instead of being dropped.  :func:`route_fault_tolerant`
then routes around dead primaries by falling back to backups at each
hop -- bridging the window between a crash and the recovery sweep.
Both run on packed IDs, like :mod:`repro.routing.router`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.ids.digits import PACKED_DIGIT_BITS, PACKED_DIGIT_MASK, NodeId
from repro.ids.packed import entry_pattern
from repro.routing.router import RouteResult, TableProvider
from repro.routing.table import NeighborTable

Position = Tuple[int, int]

#: Default cap on extras per entry (Tapestry keeps two backups).
MAX_BACKUPS = 2


class BackupStore:
    """Up to :data:`MAX_BACKUPS` alternate neighbors per entry."""

    __slots__ = ("owner", "capacity", "_base", "_backups")

    def __init__(self, owner: NodeId, capacity: int = MAX_BACKUPS):
        self.owner = owner
        self.capacity = capacity
        self._base = owner.base
        # Buckets keyed by flat index ``level * base + digit`` -- int
        # hashing, no tuple allocation per probe; Check_Ngh_Table
        # offers a backup for most entries of every received table.
        self._backups: Dict[int, List[NodeId]] = {}

    def offer(self, level: int, digit: int, node: NodeId) -> bool:
        """Remember ``node`` as a backup for ``(level, digit)`` if it
        qualifies and there is room.  Returns True when stored."""
        if node == self.owner:
            return False
        key, mask = entry_pattern(self.owner, level, digit)
        if node._packed & mask != key:
            return False
        return self.offer_flat(level * self._base + digit, node)

    def offer_qualified(self, level: int, digit: int, node: NodeId) -> bool:
        """:meth:`offer` minus the qualification re-check (hot path).

        The protocol's ``Check_Ngh_Table``/``JoinNotiMsg`` loops derive
        ``(level, digit)`` from ``csuf(node, owner)`` immediately before
        offering, so the suffix constraint and ``node != owner`` hold by
        construction; this entry point skips re-deriving them.
        """
        return self.offer_flat(level * self._base + digit, node)

    def offer_flat(self, idx: int, node: NodeId) -> bool:
        """:meth:`offer_qualified` addressed by flat index (the
        caller's loop already computed ``level * base + digit``)."""
        bucket = self._backups.get(idx)
        if bucket is None:
            if self.capacity < 1:
                return False
            self._backups[idx] = [node]
            return True
        if len(bucket) >= self.capacity or node in bucket:
            return False
        bucket.append(node)
        return True

    def get(self, level: int, digit: int) -> List[NodeId]:
        """The backups recorded for ``(level, digit)`` (copy)."""
        return list(self._backups.get(level * self._base + digit, ()))

    def discard(self, node: NodeId) -> None:
        """Forget a departed node everywhere."""
        for idx in list(self._backups):
            bucket = self._backups[idx]
            if node in bucket:
                bucket.remove(node)
                if not bucket:
                    del self._backups[idx]

    def total(self) -> int:
        """Total backups stored across all positions."""
        return sum(len(bucket) for bucket in self._backups.values())

    def positions(self) -> List[Position]:
        """Positions that currently have at least one backup."""
        base = self._base
        return [divmod(idx, base) for idx in sorted(self._backups)]


#: Resolves a node ID to its backup store.
BackupProvider = Callable[[NodeId], BackupStore]


def harvest_backups(network, capacity: int = MAX_BACKUPS) -> None:
    """Fill every node's backup store from global membership.

    PRR-style tables store a *subset* of each suffix class per entry;
    the join protocol only accumulates backups opportunistically (from
    contested fills), so experiments that want fully-provisioned
    backup sets -- e.g. the routing-availability bench -- call this to
    top them up, exactly as a background maintenance task would.
    """
    from repro.ids.suffix import SuffixIndex

    members = network.member_ids()
    index = SuffixIndex(members)
    for node_id in members:
        node = network.node(node_id)
        table = node.table
        store = node.backups
        store.capacity = max(store.capacity, capacity)
        for entry in table.entries():
            if entry.node == node_id:
                continue
            suffix = node_id.suffix(entry.level) + (entry.digit,)
            for candidate in sorted(index.nodes_with(suffix)):
                if candidate in (entry.node, node_id):
                    continue
                if len(store.get(entry.level, entry.digit)) >= capacity:
                    break
                store.offer(entry.level, entry.digit, candidate)


def route_fault_tolerant(
    tables: TableProvider,
    backups: BackupProvider,
    live: Set[NodeId],
    source: NodeId,
    target: NodeId,
    max_hops: Optional[int] = None,
) -> RouteResult:
    """Suffix routing that falls back to backup neighbors when the
    primary next hop is dead (``live`` is the surviving membership).

    Every hop -- primary or backup -- still extends the matched
    suffix, so termination is unchanged.
    """
    if max_hops is None:
        max_hops = source.num_digits
    path = [source]
    current = source
    goal = target._packed
    w = PACKED_DIGIT_BITS
    while current != target:
        if len(path) - 1 >= max_hops:
            return RouteResult(False, path, failed_at=current)
        z = current._packed ^ goal
        level = ((z & -z).bit_length() - 1) // w
        table = tables(current)
        idx = level * table.base + ((goal >> level * w) & PACKED_DIGIT_MASK)
        primary = table._cells[idx]
        if primary is not None and primary in live:
            hop = primary
        else:
            spares = backups(current)._backups.get(idx, ())
            hop = next((c for c in spares if c in live), None)
        if hop is None or (hop._packed ^ goal) & ((1 << (level + 1) * w) - 1):
            return RouteResult(False, path, failed_at=current)
        path.append(hop)
        current = hop
    return RouteResult(True, path)
