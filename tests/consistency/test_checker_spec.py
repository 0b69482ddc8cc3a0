"""``check_consistency`` against the cell-by-cell specification.

The checker walks each table's snapshot against the positions a packed
suffix-class index says must be filled.  What it must *decide* is
Definition 3.8 as written: probe every ``(level, digit)`` cell of every
table against the suffix sets.  :func:`spec_check` below is that probe,
kept here as the specification; the two must report the same
``(node, level, digit, kind)`` list, in the same order, on networks
corrupted every way the rules distinguish -- and must stop at the same
point under ``max_violations``.  So must the incremental checker, in
its relaxed mid-run mode and in its strict quiescence check after the
tables moved on.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency.checker import check_consistency, table_violations
from repro.consistency.incremental import IncrementalChecker
from repro.ids.idspace import IdSpace
from repro.ids.packed import SuffixClassIndex
from repro.ids.suffix import SuffixIndex
from repro.routing.entry import NeighborState
from repro.routing.oracle import build_consistent_tables


def spec_check(
    tables, max_violations=None, require_s_states=True, occupant_set=None
):
    """Definition 3.8, one cell at a time, over tuple-keyed suffix sets."""
    members = list(tables)
    index = SuffixIndex(members)
    relaxed = occupant_set is not None
    allowed = set(members) if occupant_set is None else set(occupant_set)
    found = []
    for node_id in members:
        table = tables[node_id]
        for level in range(node_id.num_digits):
            shared = node_id.suffix(level)
            for digit in range(node_id.base):
                if max_violations is not None and len(found) >= max_violations:
                    return found
                desired = shared + (digit,)
                occupant = table.get(level, digit)
                exists = index.any_with(desired)
                if occupant is None:
                    if exists:
                        found.append((node_id, level, digit, "false_negative"))
                elif not exists and not relaxed:
                    found.append((node_id, level, digit, "false_positive"))
                elif occupant not in allowed:
                    found.append((node_id, level, digit, "bad_occupant"))
                elif not occupant.has_suffix(desired):
                    found.append((node_id, level, digit, "bad_occupant"))
                elif (
                    require_s_states
                    and table.state(level, digit) is not NeighborState.S
                ):
                    found.append((node_id, level, digit, "stale_state"))
    return found


def spec_strict_clean(view, node_id, found):
    """The strict verdict a scan returns: ``found`` (the node's
    violations in the scan's own mode) is empty, the filled positions
    are exactly those Definition 3.8 wants filled, all in state ``S``."""
    index = SuffixIndex(list(view))
    wanted = {
        (level, digit)
        for level in range(node_id.num_digits)
        for digit in range(node_id.base)
        if index.any_with(node_id.suffix(level) + (digit,))
    }
    entries = list(view[node_id].entries())
    return (
        not found
        and {(e.level, e.digit) for e in entries} == wanted
        and all(e.state is NeighborState.S for e in entries)
    )


def _keys(report):
    return [(v.node, v.level, v.digit, v.kind) for v in report.violations]


def _corrupt(space, tables, rng, steps):
    """Damage ``tables`` in place; returns the members still audited."""
    members = list(tables)
    for _ in range(steps):
        owner = rng.choice(members)
        table = tables[owner]
        entries = list(table.entries())
        kind = rng.randrange(5)
        if kind == 0 and entries:  # deletion -> false negative
            entry = rng.choice(entries)
            table.clear_entry(entry.level, entry.digit)
        elif kind == 1:  # occupant nobody audits -> false positive / bad
            level = rng.randrange(space.num_digits)
            digits = list(owner.digits)
            digits[level] = rng.randrange(space.base)
            for above in range(level + 1, space.num_digits):
                digits[above] = rng.randrange(space.base)
            foreign = space.from_digits(tuple(digits))
            if table.get(level, digits[level]) != foreign:
                table.replace_entry(
                    level, digits[level], foreign, NeighborState.S
                )
        elif kind == 2 and entries:  # stale T state
            entry = rng.choice(entries)
            table.set_state(entry.level, entry.digit, NeighborState.T)
        elif kind == 3 and len(members) > 2:  # member leaves the audit
            members.remove(owner)
        elif kind == 4 and entries:  # occupant with the wrong suffix
            entry = rng.choice(entries)
            table.clear_entry(entry.level, entry.digit)
            table.fill_empty(  # the trusted fill checks nothing
                entry.level, entry.digit, rng.choice(members), entry.state
            )
    return members


def _mutate(space, ids, view, rng):
    """Move ``view`` on after a check: a ``T`` state, a filled entry
    Definition 3.8 may not want, and (space permitting) a late member."""
    members = list(view)
    flipped = view[rng.choice(members)]
    entries = list(flipped.entries())
    if entries:
        entry = rng.choice(entries)
        flipped.set_state(entry.level, entry.digit, NeighborState.T)
    owner = rng.choice(members)
    table = view[owner]
    level = rng.randrange(space.num_digits)
    digit = (owner.digits[level] + 1) % space.base
    if table.is_empty(level, digit):
        filler = list(owner.digits)
        filler[level] = digit
        table.fill_empty(
            level, digit, space.from_digits(filler), NeighborState.S
        )
    if len(ids) < space.size:
        fresh = space.random_id(rng)
        while fresh in ids:
            fresh = space.random_id(rng)
        view[fresh] = build_consistent_tables(
            list(ids) + [fresh], random.Random(len(ids))
        )[fresh]


@st.composite
def scenarios(draw):
    base = draw(st.sampled_from([2, 3, 4, 16]))
    digits = draw(st.integers(2, 5 if base < 16 else 3))
    size = draw(st.integers(1, min(40, base ** digits)))
    seed = draw(st.integers(0, 10_000))
    steps = draw(st.integers(0, 12))
    cap = draw(st.one_of(st.none(), st.integers(1, 6)))
    return base, digits, size, seed, steps, cap


def _corrupted(scenario):
    """``(space, ids, view, rng)``: oracle tables for the scenario's
    IDs, damaged by :func:`_corrupt`; ``view`` maps the members still
    audited to their tables."""
    base, digits, size, seed, steps, _ = scenario
    rng = random.Random(seed)
    space = IdSpace(base, digits)
    ids = space.random_unique_ids(size, rng)
    tables = build_consistent_tables(ids, random.Random(seed))
    audited = _corrupt(space, tables, rng, steps)
    return space, ids, {member: tables[member] for member in audited}, rng


class TestAgainstCellByCellSpec:
    @given(scenarios())
    @settings(max_examples=150, deadline=None)
    def test_same_violations_same_order(self, scenario):
        space, ids, view, rng = _corrupted(scenario)
        cap = scenario[-1]
        occupants = set(ids) - {rng.choice(ids)} if len(ids) > 1 else set(ids)
        for require_s_states, occupant_set in (
            (True, None),
            (False, None),
            (False, occupants),
            (True, sorted(occupants)),  # any iterable will do
        ):
            expected = spec_check(view, cap, require_s_states, occupant_set)
            report = check_consistency(
                view, cap, require_s_states, occupant_set
            )
            assert _keys(report) == expected
            assert report.consistent == (not expected)
        # The stateful checker is the relaxed mode of the same scan.
        incremental = IncrementalChecker().check(view, occupants, cap)
        assert _keys(incremental) == spec_check(
            view, cap, require_s_states=False, occupant_set=occupants
        )

    @given(scenarios())
    @settings(max_examples=100, deadline=None)
    def test_every_scan_returns_the_strict_verdict(self, scenario):
        """Relaxed or strict, a table scan also answers whether the
        table is clean under the strict rules -- the bit the quiescence
        check of the incremental checker rests on.  A relaxed scan with
        live ``T``-nodes as occupants must not call an entry that only
        they justify strict-clean."""
        _, ids, view, _ = _corrupted(scenario)
        index = SuffixClassIndex.of(view)
        for require_s_states, occupant_set in (
            (True, view), (False, view), (False, ids),
        ):
            occupants = {node._packed for node in occupant_set}
            relaxed = occupant_set is ids
            for node_id, table in view.items():
                found = []
                clean = table_violations(
                    node_id, table, index, occupants, found,
                    require_s_states=require_s_states,
                    relaxed_occupants=relaxed,
                )
                assert clean == spec_strict_clean(view, node_id, found)

    @given(scenarios())
    @settings(max_examples=150, deadline=None)
    def test_final_check_after_mutation(self, scenario):
        """The quiescence check reuses what the relaxed passes proved;
        tables that moved on afterwards (a ``T`` state, an entry that is
        not required, a late member) must still be judged strictly."""
        space, ids, view, rng = _corrupted(scenario)
        checker = IncrementalChecker()
        checker.check(view, list(view))
        _mutate(space, ids, view, rng)
        for require_s_states in (True, False):
            final = checker.check_final(view, require_s_states)
            expected = spec_check(view, None, require_s_states, None)
            assert _keys(final) == expected
            assert final.consistent == (not expected)
