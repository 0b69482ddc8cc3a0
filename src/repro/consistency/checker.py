"""Structural consistency check (Definition 3.8).

For a network ``<V, N(V)>`` and every node ``x`` in ``V``:

(a) if ``V_{j . x[i-1]...x[0]}`` is non-empty then ``N_x(i, j)`` holds
    some member of it (false-negative free);
(b) if that suffix set is empty then ``N_x(i, j)`` is null
    (false-positive free).

The checker also validates that each filled entry's occupant satisfies
the entry's suffix constraint and is a member of the network, and that
every recorded neighbor *state* is ``S`` -- by the end of all joins,
every node is an S-node (Theorem 2), so a lingering ``T`` marks a
bookkeeping bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import AbstractSet, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.ids.digits import PACKED_DIGIT_BITS, PACKED_DIGIT_MASK, NodeId
from repro.ids.packed import SuffixClassIndex
from repro.routing.entry import NeighborState
from repro.routing.table import NeighborTable


@dataclass(frozen=True)
class Violation:
    """One consistency violation."""

    node: NodeId
    level: int
    digit: int
    kind: str  # "false_negative", "false_positive", "bad_occupant", "stale_state"
    detail: str

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return (
            f"{self.kind} at ({self.level},{self.digit}) of {self.node}: "
            f"{self.detail}"
        )


@dataclass
class ConsistencyReport:
    """Outcome of a full Definition 3.8 check."""

    consistent: bool
    violations: List[Violation] = field(default_factory=list)
    nodes_checked: int = 0
    entries_checked: int = 0

    def by_kind(self) -> Dict[str, int]:
        """Violation counts grouped by kind."""
        out: Dict[str, int] = {}
        for violation in self.violations:
            out[violation.kind] = out.get(violation.kind, 0) + 1
        return out


def check_consistency(
    tables: Mapping[NodeId, NeighborTable],
    max_violations: Optional[int] = None,
    require_s_states: bool = True,
    occupant_set: Optional[Iterable[NodeId]] = None,
) -> ConsistencyReport:
    """Check Definition 3.8 over ``tables`` (the membership is the key
    set).  Set ``require_s_states=False`` to check a network snapshot
    taken *during* joins, where ``T`` states are legitimate.

    ``occupant_set`` widens the set of nodes a filled entry may legally
    point at beyond the checked membership.  The live auditor uses this
    mid-run: suffix coverage is checked over the *S-node* subnetwork
    (``tables``), but an S-node legitimately holds pointers at T-nodes
    still joining, so every live node is an acceptable occupant.  In
    this relaxed mode the ``false_positive`` rule is suspended -- a
    filled entry is justified by its (suffix-valid, live) occupant even
    when no *checked* member carries the suffix, because the occupant
    may simply not have reached *in_system* yet."""
    report = ConsistencyReport(consistent=True)
    if not tables:
        return report
    index = SuffixClassIndex.of(tables)
    occupants = {
        node._packed
        for node in (tables if occupant_set is None else occupant_set)
    }
    cells = index.base * index.num_digits
    found = report.violations
    for node_id, table in tables.items():
        report.nodes_checked += 1
        report.entries_checked += cells
        table_violations(
            node_id, table, index, occupants, found,
            require_s_states=require_s_states,
            relaxed_occupants=occupant_set is not None,
        )
        if max_violations is not None and len(found) >= max_violations:
            del found[max_violations:]
            break
    report.consistent = not found
    return report


def table_violations(
    node_id: NodeId,
    table: NeighborTable,
    index: SuffixClassIndex,
    occupants: AbstractSet[int],
    found: List[Violation],
    *,
    require_s_states: bool,
    relaxed_occupants: bool,
) -> bool:
    """Append ``node_id``'s violations to ``found``, in position order.
    ``occupants`` holds the *packed* IDs an entry may point at (int
    hashing stays in C; hashing a NodeId is a method call per entry).

    One merge of two sorted sequences: the positions ``index`` (which
    must hold ``node_id``) requires filled, and the table's snapshot.
    A required position the snapshot skips is a false negative, a
    filled one that is not required a false positive (unless
    ``relaxed_occupants``), and every other filled entry is held to the
    occupant and state rules -- what a probe of all ``d * b`` cells
    against the suffix sets decides, without visiting the empty ones.

    Returns, whatever the mode, whether the table is clean under the
    strict rules: no violation found, exactly the required positions
    filled (so no false positive) and every state ``S``.

    Most tables are clean, and a table whose filled positions are
    exactly the required ones can hold neither a false negative nor a
    false positive.  Such a table takes one pass over its cells that
    checks each occupant's membership and suffix and then the states;
    at the first anomaly the merge below decides, so the violations,
    their order and the returned verdict are the merge's own.
    """
    packed = node_id._packed
    base = index.base
    required = index.required_positions(packed)
    positions = table._positions
    if positions == required:
        high, low, digit_bits = _cell_patterns(base, index.num_digits)
        cells = table._cells
        for idx in positions:
            other = cells[idx]._packed
            if other not in occupants or (
                other & high[idx] != (packed & low[idx]) | digit_bits[idx]
            ):
                break
        else:
            if _T_CODE not in table._states:
                return True
            if not require_s_states:
                return False
    w = PACKED_DIGIT_BITS
    digit_mask = PACKED_DIGIT_MASK
    s_state = NeighborState.S
    count = len(required)
    snapshot = table.snapshot()
    already = len(found)
    all_s = True
    i = 0
    for level, digit, occupant, state in snapshot:
        idx = level * base + digit
        if i < count and required[i] == idx:
            i += 1
        else:
            while i < count and required[i] < idx:
                found.append(_false_negative(node_id, required[i], index))
                i += 1
            if i < count and required[i] == idx:
                i += 1
            elif not relaxed_occupants:
                found.append(Violation(
                    node_id, level, digit, "false_positive",
                    f"entry holds {occupant} but no node has the "
                    f"required suffix",
                ))
                continue
        other = occupant._packed
        if other not in occupants:
            found.append(Violation(
                node_id, level, digit, "bad_occupant",
                f"{occupant} is not a member of the network",
            ))
            continue
        shift = level * w
        if (other ^ packed) & ((1 << shift) - 1) or (
            (other >> shift) & digit_mask
        ) != digit:
            found.append(Violation(
                node_id, level, digit, "bad_occupant",
                f"{occupant} lacks the required suffix",
            ))
            continue
        if state is not s_state:
            all_s = False
            if require_s_states:
                found.append(Violation(
                    node_id, level, digit, "stale_state",
                    f"neighbor {occupant} still recorded as T",
                ))
    for idx in required[i:]:
        found.append(_false_negative(node_id, idx, index))
    return all_s and len(found) == already and len(snapshot) == count


#: The state byte :class:`NeighborTable` keeps for a ``T`` entry.
_T_CODE = 1


@lru_cache(maxsize=None)
def _cell_patterns(
    base: int, num_digits: int
) -> Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]:
    """Per flat position ``idx = level * base + digit``: the mask of
    the ``level + 1`` low digits, the mask of the ``level`` low digits,
    and ``digit`` in its place.  An occupant ``p`` carries the suffix
    the ``idx`` entry of ``q``'s table asks for iff ``p & high[idx] ==
    (q & low[idx]) | digit_bits[idx]``."""
    high, low, digit_bits = [], [], []
    for level in range(num_digits):
        shift = level * PACKED_DIGIT_BITS
        for digit in range(base):
            high.append((1 << (shift + PACKED_DIGIT_BITS)) - 1)
            low.append((1 << shift) - 1)
            digit_bits.append(digit << shift)
    return tuple(high), tuple(low), tuple(digit_bits)


def _false_negative(
    node_id: NodeId, idx: int, index: SuffixClassIndex
) -> Violation:
    level, digit = divmod(idx, index.base)
    shift = level * PACKED_DIGIT_BITS
    wanted = (digit << shift) | (node_id._packed & ((1 << shift) - 1))
    example = index.members(index.key(wanted, level + 1))[0]
    return Violation(
        node_id, level, digit, "false_negative",
        f"suffix set non-empty (e.g. {example}) but entry is null",
    )
