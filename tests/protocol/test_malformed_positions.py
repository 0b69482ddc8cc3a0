"""Positional messages naming a cell outside the receiver's table.

RvNghNotiMsg, RvNghNotiRlyMsg, RvNghDropMsg and LeaveNotifyMsg carry a
bare ``(level, digit)`` that the wire codec decodes as plain ints.  On
the flat-array table an out-of-range position can alias another cell
(``(0, b)`` is ``(1, 0)``; ``(-1, j)`` reads ``(d-1, j)``).  Each test
therefore aims the message at a receiver whose aliased cell holds the
sender: as primary neighbor, or as reverse neighbor for the two
reverse-set messages.  The handler must ignore the message: nothing
raised, nothing sent, the table and the reverse sets unchanged.
"""

import random

import pytest

from repro.ids.idspace import IdSpace
from repro.protocol.join import JoinProtocolNetwork
from repro.protocol.leave import LeaveNotifyMsg
from repro.protocol.messages import RvNghDropMsg, RvNghNotiMsg, RvNghNotiRlyMsg
from repro.routing.entry import NeighborState

SPACE = IdSpace(4, 3)


def _network():
    ids = SPACE.random_unique_ids(40, random.Random(5))
    return JoinProtocolNetwork.from_oracle(SPACE, ids, seed=5)


#: Messages that act on the receiver's reverse set at the position;
#: the others act on its primary neighbor there.
REVERSE_SET_KINDS = ("RvNghNotiMsg", "RvNghDropMsg")


def _aliased_target(net, kind, position):
    """``(receiver, sender)``: ``sender`` is what the receiver's aliased
    cell holds (as reverse or primary neighbor, per ``kind``)."""
    level, digit = position
    cells = SPACE.base * SPACE.num_digits
    alias = divmod((level * SPACE.base + digit) % cells, SPACE.base)
    for receiver in sorted(net.member_ids(), key=str):
        table = net.table(receiver)
        if kind in REVERSE_SET_KINDS:
            held = sorted(table.reverse_neighbors(*alias) - {receiver}, key=str)
        else:
            held = [table.get(*alias)]
        if held and held[0] not in (None, receiver):
            return receiver, held[0]
    raise AssertionError(f"no member holds another node at {alias}")


def _observable(net, receiver):
    table = net.table(receiver)
    reverse = [
        (position, sorted(map(str, table.reverse_neighbors(*position))))
        for position in table.reverse_positions()
    ]
    return (
        table.snapshot(), reverse, table.version, net.stats.snapshot(),
        net.node(receiver).status,
    )


def _message(kind, sender, level, digit, bystander):
    if kind == "RvNghNotiMsg":
        return RvNghNotiMsg(sender, level, digit, NeighborState.T)
    if kind == "RvNghNotiRlyMsg":
        return RvNghNotiRlyMsg(sender, level, digit, NeighborState.T)
    if kind == "RvNghDropMsg":
        return RvNghDropMsg(sender, level, digit)
    return LeaveNotifyMsg(sender, level, digit, (bystander,))


@pytest.mark.parametrize(
    "position",
    [(0, SPACE.base), (-1, 0)],
    ids=["digit_eq_base", "level_eq_minus_1"],
)
@pytest.mark.parametrize(
    "kind",
    ["RvNghNotiMsg", "RvNghNotiRlyMsg", "RvNghDropMsg", "LeaveNotifyMsg"],
)
def test_out_of_range_position_is_ignored(kind, position):
    net = _network()
    receiver, sender = _aliased_target(net, kind, position)
    bystander = next(
        m for m in net.member_ids() if m not in (receiver, sender)
    )
    before = _observable(net, receiver)
    net.node(receiver).receive(_message(kind, sender, *position, bystander))
    net.run()
    assert _observable(net, receiver) == before
