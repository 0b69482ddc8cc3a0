"""The suffix-matching routing scheme (Section 2.2).

A message from ``x`` to ``y`` starts at level ``k = |csuf(x, y)|`` and
follows, at each intermediate node ``u``, the primary
``(i, y[i])``-neighbor where ``i = |csuf(u, y)|``.  Every hop extends
the matched suffix by at least one digit, so a route takes at most
``d`` hops on a consistent network.

Each hop runs on the packed IDs (:mod:`repro.ids.packed`): the lowest
set bit of ``current ^ target`` gives the level, a shift gives the
target's digit there, and the neighbor is read straight from the flat
``table._cells[level * base + digit]`` -- no ``csuf_len``/``digit``/
``get`` calls per hop.  A hop makes progress iff it agrees with the
target on the low ``level + 1`` digits, one masked XOR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.ids.digits import PACKED_DIGIT_BITS, PACKED_DIGIT_MASK, NodeId
from repro.routing.table import NeighborTable

_W = PACKED_DIGIT_BITS

#: Resolves a node ID to that node's neighbor table.
TableProvider = Callable[[NodeId], NeighborTable]


@dataclass
class RouteResult:
    """Outcome of a routing attempt.

    ``path`` always starts at the source; when ``success`` it ends at
    the destination.  ``failed_at`` names the node whose table had a
    null entry for the next required suffix (None on success).
    """

    success: bool
    path: List[NodeId]
    failed_at: Optional[NodeId] = None

    @property
    def hops(self) -> int:
        return len(self.path) - 1


def _level(current: NodeId, target: NodeId) -> int:
    """``|csuf(current, target)|`` of two distinct IDs of one space."""
    z = current._packed ^ target._packed
    return ((z & -z).bit_length() - 1) // _W


def next_hop(
    table: NeighborTable, current: NodeId, target: NodeId
) -> Optional[NodeId]:
    """The next node on the route from ``current`` toward ``target``.

    Returns None when the required entry is empty (routing failure on
    an inconsistent network) and ``current`` itself when it is already
    the target.
    """
    if current == target:
        return current
    level = _level(current, target)
    digit = (target._packed >> level * _W) & PACKED_DIGIT_MASK
    return table._cells[level * table.base + digit]


def _cyclic_first(
    cells: Sequence[Optional[NodeId]], row: int, digit: int, base: int
) -> Optional[NodeId]:
    """First filled cell of the row starting at ``row``, scanning the
    digits cyclically from ``digit`` (the surrogate substitution)."""
    for idx in range(row + digit, row + base):
        if cells[idx] is not None:
            return cells[idx]
    for idx in range(row, row + digit):
        if cells[idx] is not None:
            return cells[idx]
    return None


def surrogate_route(
    tables: TableProvider,
    source: NodeId,
    target: NodeId,
) -> RouteResult:
    """Route toward ``target`` (typically an *object* ID with no node
    behind it) and deterministically resolve to its **root** node.

    At each node, if the entry for the target's next digit is null,
    the digit is substituted by the cyclically-next digit with a
    non-null entry at that level (PRR/Pastry surrogate routing).  On a
    consistent network the surviving digit *classes* at each level are
    determined by membership alone, so every origin converges on the
    same root -- this is what makes object location deterministic
    (property P1 of the paper's introduction).
    """
    path = [source]
    current = source
    goal = target._packed
    num_digits = len(target._digits)
    for _ in range(num_digits + 1):
        if current == target:
            return RouteResult(True, path)
        table = tables(current)
        cells = table._cells
        base = table.base
        level = _level(current, target)
        hop = _cyclic_first(
            cells, level * base, (goal >> level * _W) & PACKED_DIGIT_MASK,
            base,
        )
        if hop is None:
            # Not even a self-pointer: malformed table.
            return RouteResult(False, path, failed_at=current)
        if hop == current:
            # We are the best match at this level; resolve deeper
            # levels locally until the root (possibly ourselves).
            for deeper in range(level + 1, num_digits):
                found = _cyclic_first(
                    cells, deeper * base,
                    (goal >> deeper * _W) & PACKED_DIGIT_MASK, base,
                )
                if found is not None and found != current:
                    hop = found
                    break
            if hop == current:
                return RouteResult(True, path)
        path.append(hop)
        current = hop
    return RouteResult(False, path, failed_at=current)


def route(
    tables: TableProvider,
    source: NodeId,
    target: NodeId,
    max_hops: Optional[int] = None,
) -> RouteResult:
    """Route from ``source`` to ``target`` following primary neighbors.

    ``max_hops`` defaults to ``d`` (sufficient on a consistent network;
    the suffix-match length strictly increases each hop).

    ``result.success`` is reachability in the sense of Definition 3.7,
    and ``result.path`` the neighbor sequence ``u_0 .. u_k`` with
    ``u_0 = source`` and ``u_k = target``.  The definition indexes the
    table level by the hop count, which coincides with the matched
    suffix length along the canonical route from a node with no shared
    suffix; this is the equivalent suffix-progress form, starting at
    level ``|csuf(source, target)|``.
    """
    if max_hops is None:
        max_hops = source.num_digits
    path = [source]
    current = source
    goal = target._packed
    while current != target:
        if len(path) - 1 >= max_hops:
            return RouteResult(False, path, failed_at=current)
        table = tables(current)
        z = current._packed ^ goal
        level = ((z & -z).bit_length() - 1) // _W
        shift = level * _W
        hop = table._cells[
            level * table.base + ((goal >> shift) & PACKED_DIGIT_MASK)
        ]
        if hop is None:
            return RouteResult(False, path, failed_at=current)
        if (hop._packed ^ goal) & ((1 << shift + _W) - 1):
            # A consistent network guarantees progress; surface the
            # violation instead of looping forever.
            return RouteResult(False, path + [hop], failed_at=current)
        path.append(hop)
        current = hop
    return RouteResult(True, path)
