"""Unit tests for oracle table construction."""

import random

import pytest

from repro.consistency.checker import check_consistency
from repro.ids.idspace import IdSpace
from repro.routing.entry import NeighborState
from repro.routing.oracle import build_consistent_tables


class TestOracle:
    def test_single_node_network(self):
        space = IdSpace(4, 4)
        node = space.from_string("0123")
        tables = build_consistent_tables([node])
        table = tables[node]
        # Only self-pointers.
        assert table.distinct_neighbors() == {node}
        assert table.filled_count() == 4
        assert check_consistency(tables).consistent

    def test_consistency_for_random_networks(self):
        for seed in range(5):
            space = IdSpace(4, 4)
            ids = space.random_unique_ids(30, random.Random(seed))
            tables = build_consistent_tables(ids, random.Random(seed))
            report = check_consistency(tables)
            assert report.consistent, report.violations[:3]

    def test_deterministic_without_rng(self):
        space = IdSpace(4, 4)
        ids = space.random_unique_ids(20, random.Random(1))
        t1 = build_consistent_tables(ids)
        t2 = build_consistent_tables(ids)
        for node in ids:
            assert t1[node].snapshot() == t2[node].snapshot()

    def test_self_entries_point_to_owner_with_state_s(self):
        space = IdSpace(4, 4)
        ids = space.random_unique_ids(10, random.Random(2))
        tables = build_consistent_tables(ids)
        for node in ids:
            for level in range(space.num_digits):
                assert tables[node].get(level, node.digit(level)) == node
                assert (
                    tables[node].state(level, node.digit(level))
                    is NeighborState.S
                )

    def test_all_states_are_s(self):
        space = IdSpace(4, 4)
        ids = space.random_unique_ids(10, random.Random(3))
        tables = build_consistent_tables(ids, random.Random(3))
        for node in ids:
            for entry in tables[node].entries():
                assert entry.state is NeighborState.S

    def test_reverse_neighbors_match_forward_pointers(self):
        space = IdSpace(4, 4)
        ids = space.random_unique_ids(15, random.Random(4))
        tables = build_consistent_tables(ids, random.Random(4))
        for node in ids:
            for entry in tables[node].entries():
                if entry.node == node:
                    continue
                assert node in tables[entry.node].reverse_neighbors(
                    entry.level, entry.digit
                )

    def test_rejects_empty_set(self):
        with pytest.raises(ValueError):
            build_consistent_tables([])

    def test_rejects_duplicates(self):
        space = IdSpace(4, 4)
        node = space.from_string("0123")
        with pytest.raises(ValueError):
            build_consistent_tables([node, node])

    def test_rejects_mixed_id_spaces(self):
        a = IdSpace(4, 4).from_string("0123")
        b = IdSpace(8, 4).from_string("0123")
        with pytest.raises(ValueError):
            build_consistent_tables([a, b])

    def test_randomized_choice_uses_rng(self):
        space = IdSpace(2, 6)
        ids = space.random_unique_ids(40, random.Random(5))
        t1 = build_consistent_tables(ids, random.Random(1))
        t2 = build_consistent_tables(ids, random.Random(2))
        differs = any(
            t1[node].snapshot() != t2[node].snapshot() for node in ids
        )
        assert differs


def _spec_tables(ids, rng):
    """Definition 3.8 by the book: per owner, level, digit (ascending),
    the suffix set listed in ``ids`` order; the owner where its own
    digit leads, else one ``randrange`` draw into the set (the smallest
    member without an ``rng``)."""
    entries = {}
    for owner in ids:
        for level in range(owner.num_digits):
            for digit in range(owner.base):
                wanted = owner.suffix(level) + (digit,)
                eligible = [node for node in ids if node.has_suffix(wanted)]
                if not eligible:
                    continue
                if digit == owner.digit(level):
                    pick = owner
                elif rng is None:
                    pick = min(eligible)
                else:
                    pick = eligible[rng.randrange(len(eligible))]
                entries[owner, level, digit] = pick
    return entries


class TestOracleAgainstSpec:
    """Fixed-seed networks are part of every recorded fingerprint: the
    builder must keep consuming the ``rng`` exactly as the book version
    does, whatever index it buckets the suffix sets with."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("randomized", [True, False])
    def test_entries_states_and_reverse_sets(self, seed, randomized):
        space = IdSpace(4, 5) if seed else IdSpace(16, 3)
        ids = space.random_unique_ids(70, random.Random(seed))
        rng, spec_rng = (
            (random.Random(f"{seed}-oracle"), random.Random(f"{seed}-oracle"))
            if randomized
            else (None, None)
        )
        tables = build_consistent_tables(ids, rng)
        spec = _spec_tables(ids, spec_rng)
        if randomized:
            assert rng.getstate() == spec_rng.getstate()
        reverse = {}
        for (owner, level, digit), pick in spec.items():
            if pick != owner:
                reverse.setdefault((pick, level, digit), set()).add(owner)
        for owner in ids:
            table = tables[owner]
            assert {
                (owner, e.level, e.digit): e.node for e in table.entries()
            } == {key: v for key, v in spec.items() if key[0] == owner}
            assert all(e.state is NeighborState.S for e in table.entries())
            assert {
                (owner, level, digit): table.reverse_neighbors(level, digit)
                for level, digit in table.reverse_positions()
            } == {key: v for key, v in reverse.items() if key[0] == owner}

    def test_entries_pointing_at_one_node_are_one_object(self):
        space = IdSpace(4, 5)
        ids = space.random_unique_ids(60, random.Random(3))
        tables = build_consistent_tables(ids, random.Random(3))
        seen = {}
        for table in tables.values():
            for entry in table.entries():
                first = seen.setdefault((entry.node, entry.level), entry)
                assert entry is first
