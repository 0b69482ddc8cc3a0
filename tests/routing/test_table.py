"""Unit tests for the neighbor table."""

import pytest

from repro.ids.idspace import IdSpace
from repro.routing.entry import NeighborState
from repro.routing.table import (
    EntryConflictError,
    NeighborTable,
    format_table,
)

SPACE = IdSpace(4, 5)
OWNER = SPACE.from_string("21233")


def make_table():
    return NeighborTable(OWNER)


class TestEntryAccess:
    def test_empty_initially(self):
        table = make_table()
        assert table.get(0, 0) is None
        assert table.state(0, 0) is None
        assert table.is_empty(0, 0)
        assert len(table) == 0

    def test_set_and_get(self):
        table = make_table()
        neighbor = SPACE.from_string("01100")
        table.set_entry(0, 0, neighbor, NeighborState.S)
        assert table.get(0, 0) == neighbor
        assert table.state(0, 0) is NeighborState.S
        assert not table.is_empty(0, 0)

    def test_position_bounds(self):
        table = make_table()
        neighbor = SPACE.from_string("01100")
        with pytest.raises(ValueError):
            table.set_entry(5, 0, neighbor, NeighborState.S)
        with pytest.raises(ValueError):
            table.set_entry(0, 4, neighbor, NeighborState.S)

    def test_suffix_constraint_enforced(self):
        table = make_table()
        # (1, 0)-entry requires suffix "03"; 01100 has suffix "00".
        with pytest.raises(ValueError):
            table.set_entry(1, 0, SPACE.from_string("01100"), NeighborState.S)

    def test_valid_higher_level_entry(self):
        table = make_table()
        # (2, 0)-entry requires suffix "033".
        table.set_entry(2, 0, SPACE.from_string("31033"), NeighborState.T)
        assert table.get(2, 0) == SPACE.from_string("31033")

    def test_conflict_on_overwrite(self):
        table = make_table()
        table.set_entry(0, 0, SPACE.from_string("01100"), NeighborState.S)
        with pytest.raises(EntryConflictError):
            table.set_entry(0, 0, SPACE.from_string("22200"), NeighborState.S)

    def test_idempotent_refill_updates_state(self):
        table = make_table()
        neighbor = SPACE.from_string("01100")
        table.set_entry(0, 0, neighbor, NeighborState.T)
        table.set_entry(0, 0, neighbor, NeighborState.S)
        assert table.state(0, 0) is NeighborState.S

    def test_set_state(self):
        table = make_table()
        table.set_entry(0, 0, SPACE.from_string("01100"), NeighborState.T)
        table.set_state(0, 0, NeighborState.S)
        assert table.state(0, 0) is NeighborState.S

    def test_set_state_on_empty_raises(self):
        with pytest.raises(KeyError):
            make_table().set_state(0, 0, NeighborState.S)

    def test_self_entries_at_every_level(self):
        table = make_table()
        for level in range(OWNER.num_digits):
            table.set_entry(
                level, OWNER.digit(level), OWNER, NeighborState.S
            )
        assert table.filled_count() == OWNER.num_digits


class TestReverseNeighbors:
    def test_add_and_query(self):
        table = make_table()
        other = SPACE.from_string("21230")
        table.add_reverse(0, 3, other)
        assert table.reverse_neighbors(0, 3) == {other}
        assert table.reverse_neighbors(0, 1) == set()

    def test_all_reverse_excludes_owner(self):
        table = make_table()
        other = SPACE.from_string("21230")
        table.add_reverse(0, 3, other)
        table.add_reverse(1, 3, OWNER)
        assert table.all_reverse_neighbors() == {other}

    def test_add_reverse_idempotent(self):
        table = make_table()
        other = SPACE.from_string("21230")
        table.add_reverse(0, 3, other)
        table.add_reverse(0, 3, other)
        assert len(table.reverse_neighbors(0, 3)) == 1

    def test_reverse_returns_copy(self):
        table = make_table()
        other = SPACE.from_string("21230")
        table.add_reverse(0, 3, other)
        table.reverse_neighbors(0, 3).clear()
        assert table.reverse_neighbors(0, 3) == {other}


class TestIterationAndSnapshots:
    def setup_method(self):
        self.table = make_table()
        self.table.set_entry(0, 0, SPACE.from_string("01100"), NeighborState.S)
        self.table.set_entry(0, 3, OWNER, NeighborState.S)
        self.table.set_entry(2, 0, SPACE.from_string("31033"), NeighborState.T)

    def test_entries_sorted_by_position(self):
        positions = [(e.level, e.digit) for e in self.table.entries()]
        assert positions == sorted(positions)

    def test_entries_at_level(self):
        level0 = self.table.entries_at_level(0)
        assert [e.digit for e in level0] == [0, 3]
        assert self.table.entries_at_level(4) == []

    def test_distinct_neighbors(self):
        assert self.table.distinct_neighbors() == {
            SPACE.from_string("01100"),
            OWNER,
            SPACE.from_string("31033"),
        }

    def test_snapshot_is_immutable_copy(self):
        snapshot = self.table.snapshot()
        assert len(snapshot) == 3
        self.table.set_entry(
            1, 3, SPACE.from_string("21233"), NeighborState.S
        )
        assert len(snapshot) == 3

    def test_snapshot_levels_filters(self):
        snapshot = self.table.snapshot_levels(1, 4)
        assert {e.level for e in snapshot} == {2}

    def test_format_table_mentions_entries(self):
        rendering = format_table(self.table)
        assert "21233" in rendering
        assert "01100" in rendering
        assert "level 0" in rendering


class TestReverseBucketsActLikeSets:
    """Reverse neighbors are stored as tuples while small and untouched
    by removals, as sets otherwise; the sets the table hands out are
    iterated by senders, so they must come out in the order one real
    ``set`` per bucket (the model below) would produce, not merely be
    equal to it."""

    def test_same_sets_in_the_same_order_as_a_set_per_bucket(self):
        import random

        space = IdSpace(4, 4)
        for seed in range(60):
            rng = random.Random(seed)
            pool = space.random_unique_ids(40, rng)
            owner = pool.pop()
            table = NeighborTable(owner)
            model = {}
            for _ in range(rng.randrange(1, 150)):
                node = rng.choice(pool)
                position = (rng.randrange(2), rng.randrange(4))
                roll = rng.random()
                if roll < 0.7:
                    table.add_reverse(*position, node)
                    model.setdefault(position, set()).add(node)
                elif roll < 0.9:
                    table.remove_reverse(*position, node)
                    if position in model:
                        model[position].discard(node)
                        if not model[position]:
                            del model[position]
                else:
                    table.remove_reverse_everywhere(node)
                    for key in list(model):
                        model[key].discard(node)
                        if not model[key]:
                            del model[key]
                assert table.reverse_positions() == sorted(model)
                for key, bucket in model.items():
                    assert list(table.reverse_neighbors(*key)) == list(
                        set(bucket)
                    )
                everyone = set()
                for bucket in model.values():
                    everyone |= bucket
                everyone.discard(owner)
                assert list(table.all_reverse_neighbors()) == list(everyone)
