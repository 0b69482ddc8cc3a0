"""The packed routers against digit-tuple reference routers.

:mod:`repro.routing.router` and :func:`route_fault_tolerant` compute
each hop with XOR/shift arithmetic on packed IDs and read the flat
table cells directly.  The reference models below are the Section 2.2
rules written with ``csuf_len``/``digit``/``get`` -- the form the
routers had before -- and every :class:`RouteResult` must agree with
them: on consistent tables, on tables with cleared entries, and on
tables read through the wrong owner (where a hop can fail to make
progress).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ids.idspace import IdSpace
from repro.routing.backups import BackupStore, route_fault_tolerant
from repro.routing.oracle import build_consistent_tables
from repro.routing.router import RouteResult, next_hop, route, surrogate_route


def ref_next_hop(table, current, target):
    if current == target:
        return current
    level = current.csuf_len(target)
    return table.get(level, target.digit(level))


def ref_route(tables, source, target, max_hops=None):
    if max_hops is None:
        max_hops = source.num_digits
    path = [source]
    current = source
    while current != target:
        if len(path) - 1 >= max_hops:
            return RouteResult(False, path, failed_at=current)
        hop = ref_next_hop(tables(current), current, target)
        if hop is None:
            return RouteResult(False, path, failed_at=current)
        if hop.csuf_len(target) <= current.csuf_len(target):
            return RouteResult(False, path + [hop], failed_at=current)
        path.append(hop)
        current = hop
    return RouteResult(True, path)


def _cyclic(table, level, target, base):
    for offset in range(base):
        candidate = table.get(level, (target.digit(level) + offset) % base)
        if candidate is not None:
            return candidate
    return None


def ref_surrogate_route(tables, source, target):
    path = [source]
    current = source
    for _ in range(target.num_digits + 1):
        if current == target:
            return RouteResult(True, path)
        table = tables(current)
        level = current.csuf_len(target)
        hop = _cyclic(table, level, target, current.base)
        if hop is None:
            return RouteResult(False, path, failed_at=current)
        if hop == current:
            for deeper in range(level + 1, current.num_digits):
                found = _cyclic(table, deeper, target, current.base)
                if found is not None and found != current:
                    hop = found
                    break
            if hop == current:
                return RouteResult(True, path)
        path.append(hop)
        current = hop
    return RouteResult(False, path, failed_at=current)


def ref_route_fault_tolerant(tables, backups, live, source, target):
    path = [source]
    current = source
    while current != target:
        if len(path) - 1 >= source.num_digits:
            return RouteResult(False, path, failed_at=current)
        level = current.csuf_len(target)
        digit = target.digit(level)
        candidates = []
        primary = tables(current).get(level, digit)
        if primary is not None:
            candidates.append(primary)
        candidates.extend(backups(current).get(level, digit))
        hop = next((c for c in candidates if c in live), None)
        if hop is None or hop.csuf_len(target) <= level:
            return RouteResult(False, path, failed_at=current)
        path.append(hop)
        current = hop
    return RouteResult(True, path)


def ref_offer_qualifies(owner, level, digit, node):
    """``BackupStore.offer``'s admission rule, on digit tuples."""
    if node == owner or not 0 <= level < owner.num_digits:
        return False
    return node.csuf_len(owner) >= level and node.digit(level) == digit


@st.composite
def networks(draw):
    """Oracle tables (optionally damaged) plus a table provider that
    may read some nodes through another node's table."""
    base = draw(st.sampled_from([2, 4, 16]))
    num_digits = draw(st.integers(2, 5))
    space = IdSpace(base, num_digits)
    n = draw(st.integers(2, min(40, space.size)))
    rng = random.Random(draw(st.integers(0, 2**16)))
    members = space.random_unique_ids(n, rng)
    tables = build_consistent_tables(members, rng=rng)
    cleared = draw(st.floats(0.0, 0.5))
    for table in tables.values():
        for level, digit, _node, _state in list(table.snapshot()):
            if rng.random() < cleared:
                table.clear_entry(level, digit)
    view = dict(tables)
    if draw(st.booleans()):
        ordered = sorted(members)
        for a, b in zip(ordered[::3], ordered[1::3]):
            view[a], view[b] = tables[b], tables[a]
    return space, members, view, rng


class TestPackedRouters:
    @given(networks())
    @settings(max_examples=150, deadline=None)
    def test_route_and_next_hop(self, drawn):
        space, members, view, rng = drawn
        for _ in range(30):
            source, target = rng.choice(members), rng.choice(members)
            assert route(view.__getitem__, source, target) == ref_route(
                view.__getitem__, source, target
            )
            assert route(view.__getitem__, source, target, 1) == ref_route(
                view.__getitem__, source, target, 1
            )
            table = view[source]
            assert next_hop(table, source, target) == ref_next_hop(
                table, source, target
            )

    @given(networks())
    @settings(max_examples=150, deadline=None)
    def test_surrogate_route(self, drawn):
        space, members, view, rng = drawn
        for _ in range(30):
            source, target = rng.choice(members), space.random_id(rng)
            assert surrogate_route(
                view.__getitem__, source, target
            ) == ref_surrogate_route(view.__getitem__, source, target)

    @given(networks(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_fault_tolerant_route_and_offer(self, drawn, data):
        space, members, view, rng = drawn
        stores = {owner: BackupStore(owner, len(members)) for owner in members}
        for owner, store in stores.items():
            for _ in range(3 * space.num_digits):
                level = rng.randrange(-1, space.num_digits + 1)
                digit = rng.randrange(-1, space.base + 1)
                node = rng.choice(members)
                expected = ref_offer_qualifies(owner, level, digit, node) and (
                    node not in store.get(level, digit)
                )
                assert store.offer(level, digit, node) == expected
        dead = data.draw(st.sets(st.sampled_from(members)))
        live = set(members) - dead
        for _ in range(30):
            source, target = rng.choice(members), rng.choice(members)
            assert route_fault_tolerant(
                view.__getitem__, stores.__getitem__, live, source, target
            ) == ref_route_fault_tolerant(
                view.__getitem__, stores.__getitem__, live, source, target
            )


def test_every_outcome_is_exercised():
    """Consistent, cleared and misread tables between them reach
    success, ``failed_at`` and the no-progress failure of both routers
    -- each one agreeing with the reference."""
    space = IdSpace(4, 4)
    rng = random.Random(2)
    members = space.random_unique_ids(60, rng)
    tables = build_consistent_tables(members, rng=rng)
    view = dict(tables)
    ordered = sorted(members)
    for a, b in zip(ordered[::4], ordered[2::4]):
        view[a], view[b] = tables[b], tables[a]
    for owner in ordered[1::5]:
        level = rng.randrange(space.num_digits)
        for digit in range(space.base):
            tables[owner].clear_entry(level, digit)
    seen = set()
    for _ in range(600):
        source, target = rng.choice(members), rng.choice(members)
        result = route(view.__getitem__, source, target)
        assert result == ref_route(view.__getitem__, source, target)
        obj = space.random_id(rng)
        surrogate = surrogate_route(view.__getitem__, source, obj)
        assert surrogate == ref_surrogate_route(view.__getitem__, source, obj)
        for kind, res in (("route", result), ("surrogate", surrogate)):
            if res.success:
                seen.add((kind, "ok"))
            elif res.path[-1] == res.failed_at:
                seen.add((kind, "failed_at"))
            else:
                seen.add((kind, "no_progress"))
    assert seen == {
        ("route", "ok"), ("route", "failed_at"), ("route", "no_progress"),
        ("surrogate", "ok"), ("surrogate", "failed_at"),
    }
