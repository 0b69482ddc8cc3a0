"""Repair and optimization queries whose suffix names no ID.

``RepairFindMsg`` and ``OptFindMsg`` carry the wanted suffix as a bare
tuple of ints.  A digit outside ``[0, base)`` or a suffix longer than
``d`` matches no node, so the receiver must name no candidate: no
``RepairFindRlyMsg`` at all, and an empty ``OptFindRlyMsg`` (whose
sender then pings nobody).  Each malformed suffix below is built so a
plain shift-and-or packed key *would* match a member -- ``(n0 + 64*n1,
0)`` packs like ``n``'s last two digits, and the receiver's own digits
plus a trailing 0 pack like the receiver -- and a well-formed control
suffix shows the reply path is live.
"""

import random

import pytest

from repro.ids.idspace import IdSpace
from repro.optimize.messages import OptFindMsg
from repro.protocol.join import JoinProtocolNetwork
from repro.recovery.messages import RepairFindMsg

SPACE = IdSpace(16, 3)


def _setup():
    ids = SPACE.random_unique_ids(60, random.Random(11))
    net = JoinProtocolNetwork.from_oracle(SPACE, ids, seed=11)
    for receiver in sorted(net.member_ids(), key=str):
        neighbors = net.table(receiver).distinct_neighbors()
        for neighbor in sorted(neighbors, key=str):
            if neighbor != receiver and neighbor.digit(1) > 0:
                asker = next(
                    m for m in sorted(net.member_ids(), key=str)
                    if m not in (receiver, neighbor)
                )
                return net, receiver, neighbor, asker
    raise AssertionError("no neighbor with a non-zero second digit")


def _suffixes(receiver, neighbor):
    return {
        "carry": (neighbor.digit(0) + (neighbor.digit(1) << 6), 0),
        "too_long": receiver.digits + (0,),
        "valid": neighbor.suffix(2),
    }


def _deliver(kind, suffix):
    net, receiver, neighbor, asker = _setup()
    suffix = _suffixes(receiver, neighbor)[suffix]
    before = net.stats.snapshot()
    if kind == "repair":
        msg = RepairFindMsg(asker, asker, suffix, ttl=0)
        reply, follow_up = "RepairFindRlyMsg", "RepairFindRlyMsg"
    else:
        msg = OptFindMsg(asker, suffix)
        reply, follow_up = "OptFindRlyMsg", "PingMsg"
    net.node(receiver).receive(msg)
    net.run()
    after = net.stats.snapshot()
    return (
        after.get(reply, 0) - before.get(reply, 0),
        after.get(follow_up, 0) - before.get(follow_up, 0),
    )


@pytest.mark.parametrize("suffix", ["carry", "too_long"])
def test_repair_find_names_no_candidate(suffix):
    assert _deliver("repair", suffix) == (0, 0)


@pytest.mark.parametrize("suffix", ["carry", "too_long"])
def test_opt_find_replies_empty(suffix):
    replies, pings = _deliver("opt", suffix)
    assert (replies, pings) == (1, 0)


def test_well_formed_suffix_gets_candidates():
    assert _deliver("repair", "valid")[0] == 1
    assert _deliver("opt", "valid")[1] >= 1
