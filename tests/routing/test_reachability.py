"""Unit tests for reachability (Definition 3.7), decided by ``route``."""

import random

from repro.ids.idspace import IdSpace
from repro.routing.oracle import build_consistent_tables
from repro.routing.router import route


def network(count=20, seed=0):
    space = IdSpace(4, 4)
    ids = space.random_unique_ids(count, random.Random(seed))
    tables = build_consistent_tables(ids, random.Random(seed))
    return space, ids, tables


class TestReachability:
    def test_reachable_in_consistent_network(self):
        space, ids, tables = network()
        provider = lambda n: tables[n]  # noqa: E731
        assert route(provider, ids[0], ids[1]).success

    def test_path_is_valid_neighbor_sequence(self):
        space, ids, tables = network(seed=2)
        provider = lambda n: tables[n]  # noqa: E731
        result = route(provider, ids[0], ids[7])
        assert result.success
        path = result.path
        assert path[0] == ids[0] and path[-1] == ids[7]
        for current, nxt in zip(path, path[1:]):
            level = current.csuf_len(ids[7])
            assert tables[current].get(level, ids[7].digit(level)) == nxt

    def test_unreachable_returns_none(self):
        space = IdSpace(4, 4)
        a, b = space.from_string("0000"), space.from_string("1111")
        tables = build_consistent_tables([a])
        tables[b] = build_consistent_tables([b])[b]
        provider = lambda n: tables[n]  # noqa: E731
        result = route(provider, a, b)
        assert not result.success
        assert result.path[-1] != b

    def test_self_reachable(self):
        space, ids, tables = network()
        provider = lambda n: tables[n]  # noqa: E731
        assert route(provider, ids[0], ids[0]).success
