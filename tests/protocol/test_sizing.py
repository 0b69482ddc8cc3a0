"""Section 6.2: message-size reduction.

The REDUCED policy must (a) preserve protocol correctness -- final
tables still consistent, everyone still becomes an S-node -- and
(b) actually shrink the table-carrying messages.
"""

import pytest

from repro.ids.idspace import IdSpace
from repro.protocol.sizing import (
    SizingPolicy,
    join_noti_payload,
    join_noti_reply_payload,
)
from repro.routing.entry import NeighborState
from repro.routing.table import NeighborTable

from tests.conftest import (
    assert_network_correct,
    build_network,
    make_ids,
    run_joins,
)

SPACE = IdSpace(4, 4)


def sample_table():
    owner = SPACE.from_string("0123")
    table = NeighborTable(owner)
    for level in range(4):
        table.set_entry(level, owner.digit(level), owner, NeighborState.S)
    table.set_entry(0, 0, SPACE.from_string("1230"), NeighborState.S)
    table.set_entry(1, 0, SPACE.from_string("1203"), NeighborState.S)
    table.set_entry(2, 0, SPACE.from_string("1023"), NeighborState.T)
    return table


class TestPayloadPolicies:
    def test_full_policy_sends_whole_table(self):
        table = sample_table()
        snapshot, bitmap, bvb = join_noti_payload(
            SizingPolicy.FULL, table, noti_level=1, csuf_with_receiver=2
        )
        assert len(snapshot) == table.filled_count()
        assert bitmap is None
        assert bvb == 0

    def test_reduced_policy_restricts_levels(self):
        table = sample_table()
        snapshot, bitmap, bvb = join_noti_payload(
            SizingPolicy.REDUCED, table, noti_level=1, csuf_with_receiver=2
        )
        assert all(1 <= e.level <= 2 for e in snapshot)
        assert bitmap == {
            (e.level, e.digit) for e in table.entries()
        }
        # 4x4 entries = 16 bits = 2 bytes.
        assert bvb == 2

    def test_reduced_reply_filters_filled_low_levels(self):
        table = sample_table()
        # Notifier has filled (0, 0) and its own (0, 3): those are
        # omitted below noti_level; levels >= noti_level all included.
        bitmap = frozenset({(0, 0), (0, 3)})
        reply = join_noti_reply_payload(
            SizingPolicy.REDUCED, table, noti_level=1, bitmap=bitmap
        )
        positions = {(e.level, e.digit) for e in reply}
        assert (0, 0) not in positions
        assert (0, 3) not in positions
        assert (1, 0) in positions
        assert (2, 0) in positions

    def test_reduced_reply_includes_unfilled_low_levels(self):
        table = sample_table()
        bitmap = frozenset()  # notifier has nothing
        reply = join_noti_reply_payload(
            SizingPolicy.REDUCED, table, noti_level=2, bitmap=bitmap
        )
        assert len(reply) == table.filled_count()

    def test_full_reply_ignores_bitmap(self):
        table = sample_table()
        reply = join_noti_reply_payload(
            SizingPolicy.FULL, table, noti_level=1, bitmap=frozenset()
        )
        assert len(reply) == table.filled_count()


class TestEndToEndReduced:
    @pytest.mark.parametrize("seed", range(4))
    def test_reduced_policy_preserves_consistency(self, seed):
        space, ids = make_ids(4, 4, 32, seed=seed)
        net = build_network(
            space, ids[:20], seed=seed, sizing=SizingPolicy.REDUCED
        )
        run_joins(net, ids[20:])
        assert_network_correct(net)

    def test_reduced_policy_saves_bytes(self):
        space, ids = make_ids(4, 5, 60, seed=50)

        def total_bytes(sizing):
            net = build_network(space, ids[:40], seed=50, sizing=sizing)
            run_joins(net, ids[40:])
            assert_network_correct(net)
            by_type = net.stats.registry.values_by_label(
                "message_bytes", "type"
            )
            return by_type["JoinNotiMsg"] + by_type["JoinNotiRlyMsg"]

        full = total_bytes(SizingPolicy.FULL)
        reduced = total_bytes(SizingPolicy.REDUCED)
        assert reduced < full

    def test_reduced_policy_binary_base(self):
        """Heavy-collision workload under the reduced policy."""
        space, ids = make_ids(2, 7, 50, seed=51)
        net = build_network(
            space, ids[:20], seed=51, sizing=SizingPolicy.REDUCED
        )
        run_joins(net, ids[20:])
        assert_network_correct(net)
