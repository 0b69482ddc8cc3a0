"""The repair-query memo answers exactly what a fresh table scan would.

A node memoizes its answer to each ``RepairFindMsg`` suffix while its
table version and ``known_live`` size stay put.  Each case below asks
the same suffix twice with something in between that a memo could
wrongly survive -- a table write, an advertisement that only grows
``known_live``, a different asking origin -- and requires both replies
to equal a scan of the receiver's state at the time of the ask.
"""

import pytest

from repro.recovery.messages import (
    AdvertiseMsg,
    RepairFindMsg,
    RepairFindRlyMsg,
)
from repro.routing.entry import NeighborState

from tests.recovery.test_malformed_suffix import _setup, _suffixes


def ask(net, receiver, origin, suffix):
    """Deliver one TTL-0 ``RepairFindMsg`` from ``origin`` and run the
    network; the candidates of the reply, or None when none was sent."""
    replies = []

    def record(message, _dst):
        if type(message) is RepairFindRlyMsg:
            replies.append(message.candidates)
        return False

    net.transport.drop_filter = record
    try:
        net.node(receiver).receive(
            RepairFindMsg(origin, origin, suffix, ttl=0)
        )
        net.run()
    finally:
        net.transport.drop_filter = None
    assert len(replies) <= 1
    return replies[0] if replies else None


def scan(net, receiver, origin, suffix):
    """The reply a memo-free receiver sends, from its digit tuples."""
    node = net.node(receiver)
    known = node.table.distinct_neighbors()
    if node._recovery is not None:
        known |= node._recovery.known_live
    candidates = [receiver] if receiver.has_suffix(suffix) else []
    candidates += sorted(
        (n for n in known
         if n.has_suffix(suffix) and n not in (origin, receiver)),
        key=lambda n: n.digits,
    )
    return tuple(candidates) or None


def ask_checked(net, receiver, origin, suffix):
    expected = scan(net, receiver, origin, suffix)
    assert ask(net, receiver, origin, suffix) == expected
    return expected


def _level0_position(net):
    """A receiver, one of its level-0 entries ``(0, digit)`` off its
    own digit, the occupant, another member of that class absent from
    the receiver's table, and an asker distinct from all three."""
    members = sorted(net.member_ids(), key=str)
    for receiver in members:
        table = net.table(receiver)
        neighbors = table.distinct_neighbors()
        for digit in range(table.base):
            occupant = table.get(0, digit)
            if digit == receiver.digit(0) or occupant is None:
                continue
            others = [
                m for m in members
                if m.digit(0) == digit and m not in neighbors
            ]
            if others:
                asker = next(
                    m for m in members
                    if m not in (receiver, occupant, others[0])
                )
                return receiver, digit, occupant, others[0], asker
    raise AssertionError("no level-0 class with a second member")


@pytest.mark.parametrize("write", ["clear_entry", "replace_entry"])
def test_table_write_between_asks(write):
    net = _setup()[0]
    receiver, digit, occupant, other, asker = _level0_position(net)
    suffix = (digit,)
    first = ask_checked(net, receiver, asker, suffix)
    assert occupant in first
    table = net.table(receiver)
    if write == "clear_entry":
        table.clear_entry(0, digit)
    else:
        table.replace_entry(0, digit, other, NeighborState.S)
    second = ask_checked(net, receiver, asker, suffix)
    assert occupant not in (second or ())
    assert (other in (second or ())) == (write == "replace_entry")


def test_advertisement_between_asks():
    net = _setup()[0]
    receiver, _digit, _occupant, other, asker = _level0_position(net)
    suffix = other.suffix(2)
    first = ask_checked(net, receiver, asker, suffix)
    assert other not in (first or ())
    table = net.table(receiver)
    version = table.version
    net.node(receiver).receive(AdvertiseMsg(other))
    net.run()
    # Only known_live moved: the table stamp alone would miss it.
    assert table.version == version
    second = ask_checked(net, receiver, asker, suffix)
    assert other in second


def test_second_origin_excludes_itself():
    net = _setup()[0]
    for receiver in sorted(net.member_ids(), key=str):
        suffix = receiver.suffix(1)
        matching = sorted(
            (n for n in net.table(receiver).distinct_neighbors()
             if n != receiver and n.has_suffix(suffix)),
            key=str,
        )
        if len(matching) >= 2:
            break
    else:
        raise AssertionError("no receiver with two same-digit neighbors")
    first_origin, second_origin = matching[:2]
    first = ask_checked(net, receiver, first_origin, suffix)
    second = ask_checked(net, receiver, second_origin, suffix)
    assert first_origin not in first and second_origin in first
    assert second_origin not in second and first_origin in second


@pytest.mark.parametrize("suffix", ["carry", "too_long"])
def test_malformed_suffix_asked_twice(suffix):
    net, receiver, neighbor, asker = _setup()
    suffix = _suffixes(receiver, neighbor)[suffix]
    assert ask(net, receiver, asker, suffix) is None
    assert ask(net, receiver, asker, suffix) is None
