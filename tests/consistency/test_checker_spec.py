"""``check_consistency`` against the cell-by-cell specification.

The checker walks each table's snapshot against the positions a packed
suffix-class index says must be filled.  What it must *decide* is
Definition 3.8 as written: probe every ``(level, digit)`` cell of every
table against the suffix sets.  :func:`spec_check` below is that probe,
kept here as the specification; the two must report the same
``(node, level, digit, kind)`` list, in the same order, on networks
corrupted every way the rules distinguish -- and must stop at the same
point under ``max_violations``.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency.checker import check_consistency
from repro.consistency.incremental import IncrementalChecker
from repro.ids.idspace import IdSpace
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


@st.composite
def scenarios(draw):
    base = draw(st.sampled_from([2, 3, 4, 16]))
    digits = draw(st.integers(2, 5 if base < 16 else 3))
    size = draw(st.integers(1, min(40, base ** digits)))
    seed = draw(st.integers(0, 10_000))
    steps = draw(st.integers(0, 12))
    cap = draw(st.one_of(st.none(), st.integers(1, 6)))
    return base, digits, size, seed, steps, cap


class TestAgainstCellByCellSpec:
    @given(scenarios())
    @settings(max_examples=150, deadline=None)
    def test_same_violations_same_order(self, scenario):
        base, digits, size, seed, steps, cap = scenario
        rng = random.Random(seed)
        space = IdSpace(base, digits)
        ids = space.random_unique_ids(size, rng)
        tables = build_consistent_tables(ids, random.Random(seed))
        audited = _corrupt(space, tables, rng, steps)
        view = {member: tables[member] for member in audited}
        occupants = set(ids) - {rng.choice(ids)} if size > 1 else set(ids)
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
