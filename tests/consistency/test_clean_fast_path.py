"""The clean-table fast path of ``table_violations`` against the spec.

A table whose filled positions are exactly the ones Definition 3.8
wants filled takes one pass over its cells instead of the merge.  The
corruptions below all keep that shape -- they swap an occupant in
place or flip a state -- so every damaged table enters the fast path,
and each must still come out exactly as the cell-by-cell
:func:`~tests.consistency.test_checker_spec.spec_check` says: the same
``(node, level, digit, kind)`` list in the same order, the same cut
under ``max_violations``, and the same strict verdict.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency.checker import check_consistency, table_violations
from repro.consistency.incremental import IncrementalChecker
from repro.ids.idspace import IdSpace
from repro.ids.packed import SuffixClassIndex
from repro.routing.entry import NeighborState
from repro.routing.oracle import build_consistent_tables
from tests.consistency.test_checker_spec import (
    _keys,
    spec_check,
    spec_strict_clean,
)

KINDS = ("suffix", "digit", "stranger", "state")


def _swap(table, level, digit, occupant):
    """Put ``occupant`` at ``(level, digit)`` with no checks, keeping
    the entry's state and the table's filled positions."""
    state = table.state(level, digit)
    table.clear_entry(level, digit)
    table.fill_empty(level, digit, occupant, state)


def _with_digit(space, node, level, digit):
    digits = list(node.digits)
    digits[level] = digit
    return space.from_digits(tuple(digits))


def _damage(space, ids, tables, rng, kind):
    """One in-place corruption of ``kind``; False if none applies."""
    owner = rng.choice(ids)
    table = tables[owner]
    entry = rng.choice(list(table.entries()))
    level, digit = entry.level, entry.digit
    if kind == "state":
        table.set_state(level, digit, NeighborState.T)
        return True
    if kind == "stranger":
        # The entry's suffix, but no member of the network.
        stranger = _with_digit(space, owner, level, digit)
        for above in range(level + 1, space.num_digits):
            stranger = _with_digit(
                space, stranger, above, rng.randrange(space.base)
            )
        if stranger in tables:
            return False
        _swap(table, level, digit, stranger)
        return True
    if kind == "digit":
        # Shares the owner's ``level`` low digits, wrong digit there.
        fits = [
            m for m in ids
            if m.csuf_len(owner) >= level and m.digit(level) != digit
        ]
    else:
        # Right digit at ``level``, but a lower digit differs.
        fits = [
            m for m in ids
            if m.csuf_len(owner) < level and m.digit(level) == digit
        ]
    if not fits:
        return False
    _swap(table, level, digit, rng.choice(fits))
    return True


@st.composite
def scenarios(draw):
    base = draw(st.sampled_from([2, 3, 4, 16]))
    digits = draw(st.integers(2, 5 if base < 16 else 3))
    size = draw(st.integers(2, min(40, base ** digits)))
    seed = draw(st.integers(0, 10_000))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=8))
    cap = draw(st.one_of(st.none(), st.integers(1, 6)))
    return base, digits, size, seed, kinds, cap


def _damaged(scenario):
    base, digits, size, seed, kinds, _ = scenario
    rng = random.Random(seed)
    space = IdSpace(base, digits)
    ids = space.random_unique_ids(size, rng)
    tables = build_consistent_tables(ids, random.Random(seed))
    for kind in kinds:
        _damage(space, ids, tables, rng, kind)
    return ids, tables


class TestFastPathAgainstSpec:
    @given(scenarios())
    @settings(max_examples=200, deadline=None)
    def test_same_violations_same_order(self, scenario):
        ids, tables = _damaged(scenario)
        index = SuffixClassIndex.of(tables)
        for node_id, table in tables.items():  # all take the fast path
            assert table._positions == index.required_positions(
                node_id._packed
            )
        cap = scenario[-1]
        occupants = set(ids)
        for require_s_states, occupant_set in (
            (True, None),
            (False, None),
            (False, occupants),
            (True, occupants),
        ):
            expected = spec_check(tables, cap, require_s_states, occupant_set)
            report = check_consistency(
                tables, cap, require_s_states, occupant_set
            )
            assert _keys(report) == expected
            assert report.consistent == (not expected)
        incremental = IncrementalChecker().check(tables, occupants, cap)
        assert _keys(incremental) == spec_check(
            tables, cap, require_s_states=False, occupant_set=occupants
        )

    @given(scenarios())
    @settings(max_examples=200, deadline=None)
    def test_same_strict_verdict(self, scenario):
        ids, tables = _damaged(scenario)
        index = SuffixClassIndex.of(tables)
        occupants = {node._packed for node in ids}
        for require_s_states in (True, False):
            for relaxed in (True, False):
                for node_id, table in tables.items():
                    found = []
                    clean = table_violations(
                        node_id, table, index, occupants, found,
                        require_s_states=require_s_states,
                        relaxed_occupants=relaxed,
                    )
                    assert clean == spec_strict_clean(tables, node_id, found)
