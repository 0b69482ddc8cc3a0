"""Bulk table loaders vs the incremental write path.

The oracle fills tables with :meth:`NeighborTable.load_sorted` instead
of one :meth:`~NeighborTable.fill_empty` per entry; both must leave a
table that is identical through the whole public API.  (The per-cell
semantics of every mutator are pinned against the section 2.1 model in
``tests/routing/test_table_spec.py``.)
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ids.idspace import IdSpace
from repro.routing.entry import NeighborState, TableEntry
from repro.routing.table import NeighborTable


def _random_occupant(space, owner, level, digit, rng):
    """A node satisfying the ``(level, digit)``-entry constraint of
    ``owner`` (shares the length-``level`` suffix, has ``digit`` next)."""
    digits = [rng.randrange(space.base) for _ in range(space.num_digits)]
    digits[:level] = owner.digits[:level]
    digits[level] = digit
    return space.from_digits(tuple(digits))


def _observable_state(table):
    """Everything a caller can see through the public API."""
    per_cell = [
        (
            table.get(level, digit),
            table.state(level, digit),
            table.is_empty(level, digit),
        )
        for level in range(table.num_levels)
        for digit in range(table.base)
    ]
    reverse = {
        position: frozenset(table.reverse_neighbors(*position))
        for position in table.reverse_positions()
    }
    return (
        per_cell,
        table.snapshot(),
        tuple(table.entries()),
        [table.entries_at_level(level) for level in range(table.num_levels)],
        table.distinct_neighbors(),
        table.filled_count(),
        len(table),
        reverse,
    )


class TestBulkLoadEquivalence:
    @given(
        st.sampled_from([2, 3, 4]),
        st.integers(2, 4),
        st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_load_sorted_matches_fill_empty(self, base, num_digits, seed):
        space = IdSpace(base, num_digits)
        rng = random.Random(seed)
        owner = space.from_int(rng.randrange(space.size))
        items = []
        for level in range(num_digits):
            for digit in range(base):
                if rng.random() < 0.5:
                    continue
                occupant = _random_occupant(space, owner, level, digit, rng)
                state = rng.choice([NeighborState.T, NeighborState.S])
                items.append(TableEntry(level, digit, occupant, state))

        bulk, single = NeighborTable(owner), NeighborTable(owner)
        bulk.load_sorted(items)
        for level, digit, occupant, state in items:
            single.fill_empty(level, digit, occupant, state)
        assert _observable_state(bulk) == _observable_state(single)

    def test_load_sorted_requires_empty_table(self):
        space = IdSpace(4, 3)
        owner = space.from_int(5)
        table = NeighborTable(owner)
        table.fill_empty(0, owner.digit(0), owner, NeighborState.S)
        with pytest.raises(RuntimeError):
            table.load_sorted(
                [TableEntry(0, owner.digit(0), owner, NeighborState.S)]
            )
