"""Oracle construction of consistent neighbor tables.

Given the full membership ``V``, build tables satisfying Definition 3.8
directly: the ``(i, j)``-entry of ``x`` holds some node of
``V_{j . x[i-1]...x[0]}`` when that suffix set is non-empty (``x``
itself when ``j == x[i]``) and is null otherwise.  Reverse-neighbor
sets are populated to match.

Experiments use this to create the initial consistent network
``<V, N(V)>`` that joining nodes enter; tests cross-validate it against
the protocol-built network of Section 6.1.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional

from repro.ids.digits import PACKED_DIGIT_BITS, PACKED_DIGIT_MASK, NodeId
from repro.ids.packed import SuffixClassIndex
from repro.routing.entry import NeighborState, TableEntry
from repro.routing.table import NeighborTable


def build_consistent_tables(
    nodes: Iterable[NodeId],
    rng: Optional[random.Random] = None,
) -> Dict[NodeId, NeighborTable]:
    """Build consistent tables for ``nodes`` from global knowledge.

    When ``rng`` is given, each entry picks a uniformly random member of
    the eligible suffix set (mimicking tables formed by arbitrary join
    orders); otherwise the numerically smallest member is used, which is
    deterministic.

    Suffix sets come from a :class:`~repro.ids.packed.SuffixClassIndex`
    (the index the consistency checkers use), which also names, per
    class, the positions that have anyone to point at -- so the fill
    loop visits only those, and entries land through the trusted bulk
    loaders.  Fixed-seed networks are pinned: every foreign entry, in
    ``nodes`` order, then level, then digit, draws
    ``rng.randrange(len(V_omega))`` into ``V_omega`` listed in ``nodes``
    order -- singleton sets included, their draw is not free -- which
    is the ``getrandbits`` sequence this function has always consumed
    (``tests/routing/test_oracle.py`` compares against a naive builder).

    An entry ``(level, z[level], z, S)`` is the same immutable value in
    ``z``'s own table and in every table pointing at ``z`` on that
    level, so one tuple per ``(z, level)`` is built and shared by all.
    """
    members: List[NodeId] = list(nodes)
    if not members:
        raise ValueError("V must be non-empty (assumption (i))")
    index = SuffixClassIndex.of(members)
    base = index.base
    num_digits = index.num_digits
    classes = index.classes
    filled = index.filled
    tag_shift = index.tag_shift

    w = PACKED_DIGIT_BITS
    s_state = NeighborState.S
    new_entry = tuple.__new__
    entries_of: Dict[int, List[TableEntry]] = {
        node._packed: [
            new_entry(
                TableEntry,
                (
                    level,
                    (node._packed >> (level * w)) & PACKED_DIGIT_MASK,
                    node,
                    s_state,
                ),
            )
            for level in range(num_digits)
        ]
        for node in members
    }
    tables: Dict[NodeId, NeighborTable] = {
        node: NeighborTable(node) for node in members
    }
    randrange = rng.randrange if rng is not None else None
    smallest: Dict[int, NodeId] = {}
    # Reverse neighbors accumulate here (flat index -> pointers, in
    # arrival order) and are installed wholesale at the end: one dict
    # probe per cross-table pointer instead of an ``add_reverse`` call
    # with its bounds check.  Keyed by the neighbor's packed form
    # (unique within the space): int hashing stays in C, NodeId
    # hashing is a method call.
    reverse_acc: Dict[int, Dict[int, List[NodeId]]] = {
        node._packed: {} for node in members
    }
    for node in members:
        packed = node._packed
        own = entries_of[packed]
        # Levels ascend and recorded positions are sorted, so the
        # entries accumulate in exactly the order load_sorted requires.
        items: List[TableEntry] = []
        add_item = items.append
        for level in range(num_digits):
            shift = level * w
            suffix = packed & ((1 << shift) - 1)
            positions = filled.get((level << tag_shift) | suffix)
            if positions is None:
                # Alone in its class from here up: self-pointers only.
                items.extend(own[level:])
                break
            row = level * base
            own_idx = row + ((packed >> shift) & PACKED_DIGIT_MASK)
            child = ((level + 1) << tag_shift) | suffix
            for idx in positions:
                if idx == own_idx:
                    add_item(own[level])
                    continue
                key = child | ((idx - row) << shift)
                held = classes[key]
                if held.__class__ is not list:
                    neighbor = held
                    if randrange is not None:
                        randrange(1)
                elif randrange is not None:
                    neighbor = held[randrange(len(held))]
                else:
                    neighbor = smallest.get(key)
                    if neighbor is None:
                        neighbor = smallest[key] = min(held)
                add_item(entries_of[neighbor._packed][level])
                acc = reverse_acc[neighbor._packed]
                pointers = acc.get(idx)
                if pointers is None:
                    acc[idx] = [node]
                else:
                    pointers.append(node)
        tables[node].load_sorted(items)
    for node in members:
        acc = reverse_acc[node._packed]
        if acc:
            tables[node].load_reverse(acc)
    return tables
