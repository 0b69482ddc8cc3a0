"""A measured pong updates the same ``best`` cells as a full-table scan.

``OptimizationMixin._on_measured_pong`` reads only the at most ``d``
cells a candidate can fit -- ``(L, owner[L])`` below ``k = csuf(candidate,
owner)`` and ``(k, candidate[k])`` -- instead of testing every filled
entry.  :func:`reference_pong` is the full scan it replaced; both must
leave identical ``best`` maps, key order included (the finalize pass
switches entries in that order).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ids.idspace import IdSpace
from repro.ids.packed import entry_pattern
from repro.optimize.mixin import MEASURE, OptimizationMixin
from repro.recovery.messages import PongMsg
from repro.routing.entry import NeighborState
from repro.routing.table import NeighborTable

NOW = 1000.0


def reference_pong(owner, table, best_of, candidate, rtt):
    """Every filled entry not holding ``owner`` whose class
    ``candidate`` fits, in position order."""
    packed = candidate._packed
    for level, digit, node, _state in table.entries():
        if node == owner:
            continue
        key, mask = entry_pattern(owner, level, digit)
        if packed & mask != key:
            continue
        position = (level, digit)
        best = best_of.get(position)
        if best is None or rtt < best[0]:
            best_of[position] = (rtt, candidate)


class _Owner(OptimizationMixin):
    """Just the state ``_on_measured_pong`` reads."""

    def __init__(self, node_id, table):
        self.node_id = node_id
        self.table = table
        self.now = NOW
        self._opt = None


@st.composite
def pong_cases(draw):
    """``(base, owner, cells, pongs)`` as digit lists: ``cells`` fill
    table positions with class members (the owner among them), and each
    pong's candidate shares a drawn-length suffix with the owner."""
    base = draw(st.sampled_from([2, 3, 4]))
    num_digits = draw(st.integers(1, 5))
    digit = st.integers(0, base - 1)

    def digits(n):
        return draw(st.lists(digit, min_size=n, max_size=n))

    owner = digits(num_digits)
    cells = []
    for level in range(num_digits):
        for dg in range(base):
            fill = draw(st.sampled_from(["empty", "member", "owner"]))
            if fill == "empty":
                continue
            if fill == "owner" and dg == owner[level]:
                node = owner
            else:
                node = owner[:level] + [dg] + digits(num_digits - level - 1)
            cells.append((level, dg, node))
    pongs = []
    for _ in range(draw(st.integers(1, 6))):
        shared = draw(st.integers(0, num_digits))
        candidate = owner[:shared] + digits(num_digits - shared)
        pongs.append((candidate, draw(st.integers(1, 4))))
    return base, owner, cells, pongs


# b4 d3, owner 1-2-3 (rightmost first).
SELF_DIGIT_MEMBER = (
    4, [1, 2, 3],
    [(0, 1, [1, 0, 0]), (0, 2, [2, 0, 0]), (1, 2, [1, 2, 3])],
    [([1, 0, 2], 3), ([1, 3, 3], 2)],
)
CANDIDATE_IS_OWNER = (
    4, [1, 2, 3],
    [(0, 1, [1, 0, 0]), (1, 2, [1, 2, 0]), (2, 3, [1, 2, 3])],
    [([1, 2, 3], 2), ([1, 2, 0], 2)],
)
CSUF_D_MINUS_1 = (
    4, [1, 2, 3],
    [(0, 1, [1, 3, 0]), (1, 2, [1, 2, 3]), (2, 0, [1, 2, 0])],
    [([1, 2, 0], 4), ([1, 2, 1], 1)],
)


def run_both(base, owner_digits, cells, pongs):
    space = IdSpace(base, len(owner_digits))
    owner = space.from_digits(owner_digits)
    table = NeighborTable(owner)
    for level, digit, node in cells:
        table.set_entry(level, digit, space.from_digits(node), NeighborState.S)
    node = _Owner(owner, table)
    expected = {}
    for candidate_digits, rtt in pongs:
        candidate = space.from_digits(candidate_digits)
        node._on_measured_pong(PongMsg(candidate, NOW - rtt, MEASURE))
        reference_pong(owner, table, expected, candidate, float(rtt))
    return owner, table, list(node._opt.best.items()), list(expected.items())


@settings(max_examples=300, deadline=None)
@given(pong_cases())
@example(SELF_DIGIT_MEMBER)
@example(CANDIDATE_IS_OWNER)
@example(CSUF_D_MINUS_1)
def test_matches_reference_scan(case):
    _owner, _table, best, expected = run_both(*case)
    assert best == expected


def test_self_digit_member_is_updated():
    owner, table, best, _ = run_both(*SELF_DIGIT_MEMBER)
    # (0, owner[0]) holds a non-owner member; both candidates fit it.
    assert table.get(0, owner.digit(0)) != owner
    assert dict(best)[(0, 1)] == (2.0, IdSpace(4, 3).from_digits([1, 3, 3]))
    # (1, owner[1]) holds the owner: never a target.
    assert (1, 2) not in dict(best)


def test_owner_as_candidate_fits_only_self_digit_cells():
    owner, _table, best, _ = run_both(*CANDIDATE_IS_OWNER)
    assert [position for position, (_rtt, who) in best if who == owner] == [
        (0, 1), (1, 2),
    ]


def test_csuf_d_minus_1_reaches_the_last_level():
    owner, _table, best, _ = run_both(*CSUF_D_MINUS_1)
    space = IdSpace(4, 3)
    assert owner.csuf_len(space.from_digits([1, 2, 0])) == 2
    assert [position for position, _ in best] == [(0, 1), (2, 0)]
