"""SuffixClassIndex against the tuple-keyed SuffixIndex."""

import random

import pytest

from repro.ids.digits import PACKED_DIGIT_BITS as W
from repro.ids.idspace import IdSpace
from repro.ids.packed import SuffixClassIndex
from repro.ids.suffix import SuffixIndex


def _spaces():
    return [IdSpace(2, 6), IdSpace(4, 4), IdSpace(16, 3)]


class TestSuffixClassIndex:
    def test_classes_match_the_tuple_index_in_arrival_order(self):
        for space in _spaces():
            ids = space.random_unique_ids(40, random.Random(space.base))
            index = SuffixClassIndex.of(ids)
            for node in ids:
                for k in range(space.num_digits + 1):
                    key = index.key(node.packed, k)
                    # Length tag above the widest ID, suffix bits below.
                    assert key == (k << space.num_digits * W) | (
                        node.packed & ((1 << k * W) - 1)
                    )
                    assert list(index.members(key)) == [
                        other
                        for other in ids
                        if other.has_suffix(node.suffix(k))
                    ]

    def test_required_positions_are_the_non_empty_extensions(self):
        for space in _spaces():
            ids = space.random_unique_ids(40, random.Random(7))
            index = SuffixClassIndex.of(ids)
            spec = SuffixIndex(ids)
            for node in ids:
                assert index.required_positions(node.packed) == [
                    level * space.base + digit
                    for level in range(space.num_digits)
                    for digit in range(space.base)
                    if spec.any_with(node.suffix(level) + (digit,))
                ]

    def test_add_names_the_nodes_that_owe_a_new_entry(self):
        space = IdSpace(4, 4)
        ids = space.random_unique_ids(60, random.Random(1))
        index = SuffixClassIndex(space.base, space.num_digits)
        assert index.add(ids[0]) == ()
        for count, node in enumerate(ids[1:], start=1):
            before = {
                other: index.required_positions(other.packed)
                for other in ids[:count]
            }
            joined = index.add(node)
            changed = {
                other
                for other in ids[:count]
                if index.required_positions(other.packed) != before[other]
            }
            assert set(joined) == changed | {node}

    def test_missing_class_has_no_members(self):
        space = IdSpace(4, 4)
        index = SuffixClassIndex.of([space.from_string("0123")])
        absent = space.from_string("0120")
        assert index.members(index.key(absent.packed, 1)) == ()
        assert len(index.members(index.key(absent.packed, 0))) == 1

    def test_rejects_duplicates_and_foreign_spaces(self):
        node = IdSpace(4, 4).from_string("0123")
        with pytest.raises(ValueError):
            SuffixClassIndex.of([node, node])
        with pytest.raises(ValueError):
            SuffixClassIndex.of([node, IdSpace(8, 4).from_string("0123")])
