"""Object location (deterministic roots, directory service)."""

import random

import pytest

from repro.routing.location import ObjectDirectory, object_root
from repro.protocol.leave import leave_sequentially

from tests.conftest import build_network, make_ids, run_joins


def network(n=40, seed=0):
    space, ids = make_ids(16, 6, n, seed=seed)
    return space, ids, build_network(space, ids, seed=seed)


class TestObjectRoot:
    def test_origin_independent(self):
        space, ids, net = network(seed=1)
        tables = net.tables()
        provider = lambda nid: tables[nid]  # noqa: E731
        rng = random.Random(2)
        for _ in range(15):
            obj = space.from_int(rng.randrange(space.size))
            roots = {object_root(provider, o, obj) for o in ids[:10]}
            assert len(roots) == 1

    def test_raises_on_broken_tables(self):
        from repro.routing.table import NeighborTable

        space, ids, net = network(seed=2)
        tables = net.tables()
        # A node with an entirely empty table cannot even self-resolve.
        tables[ids[0]] = NeighborTable(ids[0])
        provider = lambda nid: tables[nid]  # noqa: E731
        with pytest.raises(RuntimeError):
            object_root(provider, ids[0], space.from_int(0))


class TestObjectDirectory:
    def test_publish_then_query_from_anywhere(self):
        space, ids, net = network(seed=3)
        directory = ObjectDirectory(net)
        rng = random.Random(3)
        names = [f"object-{i}" for i in range(10)]
        for name in names:
            directory.publish(rng.choice(ids), name)
        for name in names:
            holders = directory.query(rng.choice(ids), name)
            assert holders, name

    def test_publish_requires_live_member(self):
        space, ids, net = network(seed=4)
        directory = ObjectDirectory(net)
        ghost = space.from_int(
            next(
                v
                for v in range(space.size)
                if space.from_int(v) not in set(ids)
            )
        )
        with pytest.raises(ValueError):
            directory.publish(ghost, "x")

    def test_queries_survive_joins_after_republish(self):
        space, ids, net = network(n=30, seed=5)
        directory = ObjectDirectory(net)
        rng = random.Random(5)
        names = [f"track-{i}" for i in range(8)]
        for name in names:
            directory.publish(rng.choice(ids), name)
        joiners = space.random_unique_ids(10, rng, exclude=ids)
        run_joins(net, joiners)
        directory.republish_all()
        for name in names:
            assert directory.query(rng.choice(joiners), name)

    def test_later_joiner_resolves_without_any_rebuild(self):
        """The directory routes over the network's live node map: a
        member that joined after the directory was created publishes,
        is found, and asks, with no refresh call in between -- and no
        operation copies the table map (``tables()`` is never asked)."""
        space, ids, net = network(n=30, seed=8)
        directory = ObjectDirectory(net)
        joiner = space.random_unique_ids(1, random.Random(8), exclude=ids)[0]
        run_joins(net, [joiner])
        net.tables = None  # any per-operation rebuild would now raise
        directory.publish(joiner, "late")
        assert directory.query(ids[0], "late") == {joiner}
        directory.publish(ids[1], "early")
        assert directory.query(joiner, "early") == {ids[1]}

    def test_republish_drops_departed_holders(self):
        space, ids, net = network(n=20, seed=6)
        directory = ObjectDirectory(net)
        holder = ids[0]
        directory.publish(holder, "doomed")
        leave_sequentially(net, [holder])
        directory.republish_all()
        origin = net.member_ids()[0]
        assert directory.query(origin, "doomed") == set()

    def test_hashing_deterministic(self):
        space, ids, net = network(seed=7)
        directory = ObjectDirectory(net)
        assert directory.object_id("a") == directory.object_id("a")
        assert directory.object_id("a") != directory.object_id("b")
