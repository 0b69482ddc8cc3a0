"""``NeighborTable`` against the section 2.1 specification.

The paper's table is ``d`` levels of ``b`` entries; the ``(i, j)``-entry
of ``x`` may hold a node sharing ``x``'s rightmost ``i`` digits with
``j`` next, and ``R_x(i, j)`` is the set of nodes holding ``x`` there.
:class:`SpecTable` below is that definition written as two dicts keyed
by position, with only the operations the property script draws -- no
snapshot cache, no bulk loaders, no tuple buckets.  The flat-array
table must give the same results and raise the same exceptions for any
operation sequence, including positions just outside the table.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ids.idspace import IdSpace
from repro.routing.entry import NeighborState, TableEntry
from repro.routing.table import EntryConflictError, NeighborTable


class SpecTable:
    """Section 2.1 as ``(level, digit) -> (node, state)`` plus ``R_x``."""

    def __init__(self, owner):
        self.owner = owner
        self.cells = {}
        self.reverse = {}

    def inside(self, level, digit):
        return 0 <= level < self.owner.num_digits and 0 <= digit < self.owner.base

    def _position(self, level, digit):
        if not self.inside(level, digit):
            raise ValueError((level, digit))
        return level, digit

    def _admit(self, level, digit, node):
        position = self._position(level, digit)
        if (
            node.digits[:level] != self.owner.digits[:level]
            or node.digits[level] != digit
        ):
            raise ValueError(node)
        return position

    def set_entry(self, level, digit, node, state):
        position = self._admit(level, digit, node)
        current = self.cells.get(position)
        if current is not None and current[0] != node:
            raise EntryConflictError(position)
        self.cells[position] = (node, state)

    def fill_empty(self, level, digit, node, state):
        self.cells[(level, digit)] = (node, state)

    def set_state(self, level, digit, state):
        position = self._position(level, digit)
        if position not in self.cells:
            raise KeyError(position)
        self.cells[position] = (self.cells[position][0], state)

    def replace_entry(self, level, digit, node, state):
        position = self._admit(level, digit, node)
        previous = self.get(level, digit)
        self.cells[position] = (node, state)
        return previous

    def clear_entry(self, level, digit):
        previous = self.get(*self._position(level, digit))
        self.cells.pop((level, digit), None)
        return previous

    def get(self, level, digit):
        return self.cells.get((level, digit), (None, None))[0]

    def add_reverse(self, level, digit, node):
        self.reverse.setdefault(self._position(level, digit), set()).add(node)

    def remove_reverse(self, level, digit, node):
        position = self._position(level, digit)
        pointers = self.reverse.get(position)
        if pointers is not None:
            pointers.discard(node)
            if not pointers:
                del self.reverse[position]

    def remove_reverse_everywhere(self, node):
        for level, digit in list(self.reverse):
            self.remove_reverse(level, digit, node)


def observe(table, spec):
    """Compare every read of ``table`` with what ``spec`` implies."""
    for level in range(spec.owner.num_digits):
        for digit in range(spec.owner.base):
            node, state = spec.cells.get((level, digit), (None, None))
            assert table.get(level, digit) == node
            assert table.state(level, digit) is state
            assert table.is_empty(level, digit) == (node is None)
        assert table.entries_at_level(level) == [
            TableEntry(lvl, digit, *spec.cells[(lvl, digit)])
            for lvl, digit in sorted(spec.cells)
            if lvl == level
        ]
    expected = tuple(
        TableEntry(level, digit, *spec.cells[(level, digit)])
        for level, digit in sorted(spec.cells)
    )
    assert table.snapshot() == expected
    assert tuple(table.entries()) == expected
    assert len(table) == table.filled_count() == len(spec.cells)
    assert table.distinct_neighbors() == {n for n, _ in spec.cells.values()}
    assert table.reverse_positions() == sorted(spec.reverse)
    for position, pointers in spec.reverse.items():
        assert table.reverse_neighbors(*position) == pointers
    everyone = set().union(*spec.reverse.values()) - {spec.owner}
    assert table.all_reverse_neighbors() == everyone


def _occupant(space, spec, level, digit, rng):
    """A random ID fit for the ``(level, digit)``-entry when the
    position is inside the table; any random ID otherwise."""
    digits = [rng.randrange(space.base) for _ in range(space.num_digits)]
    if spec.inside(level, digit):
        owner = spec.owner
        digits[:level] = owner.digits[:level]
        digits[level] = digit
    return space.from_digits(tuple(digits))


MUTATORS = (
    "set_entry", "set_entry", "fill_empty", "set_state", "replace_entry",
    "clear_entry", "add_reverse", "remove_reverse",
    "remove_reverse_everywhere",
)


def _apply(target, op, args):
    try:
        return getattr(target, op)(*args), None
    except (EntryConflictError, KeyError, ValueError) as exc:
        return None, type(exc)


class TestAgainstSection21Spec:
    @given(
        st.sampled_from([2, 3, 4]),
        st.integers(2, 4),
        st.integers(0, 10_000),
        st.integers(1, 40),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_operation_sequences(self, base, num_digits, seed, ops):
        space = IdSpace(base, num_digits)
        rng = random.Random(seed)
        owner = space.from_int(rng.randrange(space.size))
        table, spec = NeighborTable(owner), SpecTable(owner)
        for _ in range(ops):
            # One row and one column past each edge of the table.
            level = rng.randrange(-1, num_digits + 1)
            digit = rng.randrange(-1, base + 1)
            op = rng.choice(MUTATORS)
            node = _occupant(space, spec, level, digit, rng)
            state = rng.choice([NeighborState.T, NeighborState.S])
            if op == "fill_empty":
                # Trusted path: the caller guarantees a valid empty cell.
                if (level, digit) in spec.cells or not spec.inside(level, digit):
                    continue
                args = (level, digit, node, state)
            elif op in ("set_entry", "replace_entry"):
                args = (level, digit, node, state)
            elif op == "set_state":
                args = (level, digit, state)
            elif op == "clear_entry":
                args = (level, digit)
            elif op == "remove_reverse_everywhere":
                args = (node,)
            else:
                args = (level, digit, node)
            assert _apply(table, op, args) == _apply(spec, op, args), (
                op, args,
            )
            observe(table, spec)
            assert table.positions_of(node) == sorted(
                position
                for position, (occupant, _) in spec.cells.items()
                if occupant == node
            )


class TestOutOfRangePositions:
    """An out-of-range ``(level, digit)`` used to alias another cell of
    the flat array: ``(0, 5)`` and ``(2, -3)`` both land on ``(1, 1)``
    of a b=4, d=3 table."""

    def setup_method(self):
        space = IdSpace(4, 3)
        self.owner = space.from_string("000")
        self.other = space.from_string("010")
        self.table = NeighborTable(self.owner)
        self.table.set_entry(1, 1, self.other, NeighborState.T)
        self.table.add_reverse(1, 1, self.other)
        self.before = (self.table.snapshot(), self.table.reverse_positions())

    def _unchanged(self):
        assert (
            self.table.snapshot(), self.table.reverse_positions()
        ) == self.before
        assert self.table.reverse_neighbors(1, 1) == {self.other}

    @pytest.mark.parametrize("level, digit", [(0, 5), (2, -3), (-1, 1), (3, 0)])
    def test_set_state_refuses(self, level, digit):
        with pytest.raises(ValueError):
            self.table.set_state(level, digit, NeighborState.S)
        self._unchanged()

    @pytest.mark.parametrize("level, digit", [(0, 5), (2, -3), (-1, 1), (3, 0)])
    def test_remove_reverse_refuses(self, level, digit):
        with pytest.raises(ValueError):
            self.table.remove_reverse(level, digit, self.other)
        self._unchanged()

    def test_has_position(self):
        assert self.table.has_position(1, 1)
        assert not self.table.has_position(0, 5)
        assert not self.table.has_position(2, -3)
        assert not self.table.has_position(3, 0)
