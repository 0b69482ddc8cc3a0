"""Single-join tests (Section 3.2, Lemma 5.1)."""

import random

import pytest

from repro.consistency.verifier import verify_reachability
from repro.protocol.messages import CpRstMsg
from repro.protocol.status import NodeStatus
from repro.routing.entry import NeighborState

from tests.conftest import (
    assert_network_correct,
    build_network,
    make_ids,
    run_joins,
)


class TestSingleJoin:
    def test_lemma_5_1_consistency_after_one_join(self):
        space, ids = make_ids(4, 4, 21, seed=0)
        net = build_network(space, ids[:20], seed=0)
        run_joins(net, [ids[20]])
        assert_network_correct(net)

    def test_joiner_reaches_and_is_reached(self):
        space, ids = make_ids(4, 4, 16, seed=1)
        net = build_network(space, ids[:15], seed=1)
        run_joins(net, [ids[15]])
        report = verify_reachability(net.tables())
        assert report.all_reachable

    def test_status_progression(self):
        space, ids = make_ids(4, 4, 11, seed=2)
        net = build_network(space, ids[:10], seed=2)
        joiner_node = net.start_join(ids[10], at=0.0)
        assert joiner_node.status is NodeStatus.COPYING
        net.run()
        assert joiner_node.status is NodeStatus.IN_SYSTEM
        assert joiner_node.join_began_at == 0.0
        assert joiner_node.became_s_at is not None
        assert joiner_node.became_s_at > 0.0

    def test_first_send_is_one_cprst_to_the_gateway(self, monkeypatch):
        space, ids = make_ids(4, 4, 11, seed=2)
        net = build_network(space, ids[:10], seed=2)
        sent = []
        send = net.transport.send
        monkeypatch.setattr(
            net.transport, "send",
            lambda dst, msg: (sent.append((dst, msg)), send(dst, msg)),
        )
        net.start_join(ids[10], gateway=ids[0], at=0.0)
        net.run(max_events=1)  # the begin-join timer only
        assert [(dst, type(msg)) for dst, msg in sent] == [
            (ids[0], CpRstMsg)
        ]
        assert sent[0][1].sender == ids[10]

    def test_join_into_network_with_close_id(self):
        """Joiner sharing a long suffix with an existing node."""
        space, ids = make_ids(4, 4, 10, seed=3)
        existing = ids[0]
        # Build a joiner differing only in the most significant digit.
        digits = list(existing.digits)
        digits[-1] = (digits[-1] + 1) % 4
        joiner = space.from_digits(digits)
        if joiner in set(ids[:10]):
            pytest.skip("collision in sampled ids")
        net = build_network(space, ids[:10], seed=3)
        run_joins(net, [joiner])
        assert_network_correct(net)
        # The existing node must now know the joiner at the top level.
        k = existing.csuf_len(joiner)
        assert net.table(existing).get(k, joiner.digit(k)) == joiner

    def test_join_with_unique_rightmost_digit(self):
        """No existing node shares even one digit: notification set is
        all of V (Definition 3.4's V_x[0] empty case)."""
        space = make_ids(4, 4, 0)[0]
        existing = [
            space.from_string(s) for s in ["0000", "1110", "2220", "3330"]
        ]
        joiner = space.from_string("1111")
        net = build_network(space, existing, seed=4)
        run_joins(net, [joiner])
        assert_network_correct(net)
        # Every existing node must have filled its (0, 1)-entry.
        for node in existing:
            assert net.table(node).get(0, 1) == joiner

    def test_joiner_states_all_s_at_end(self):
        space, ids = make_ids(4, 4, 13, seed=5)
        net = build_network(space, ids[:12], seed=5)
        run_joins(net, [ids[12]])
        table = net.table(ids[12])
        for entry in table.entries():
            assert entry.state is NeighborState.S

    def test_default_gateway_is_initial_member(self):
        space, ids = make_ids(4, 4, 11, seed=6)
        net = build_network(space, ids[:10], seed=6)
        net.start_join(ids[10])  # no explicit gateway
        net.run()
        assert_network_correct(net)

    def test_gateway_that_is_not_a_node_is_rejected(self):
        """An explicit gateway comes from outside the protocol, so one
        that is not a current node fails at ``start_join``, before
        anything is registered or scheduled."""
        space, ids = make_ids(4, 4, 12, seed=6)
        net = build_network(space, ids[:10], seed=6)
        with pytest.raises(ValueError, match="gateway"):
            net.start_join(ids[10], gateway=ids[11])
        assert ids[10] not in net.nodes
        assert net.runtime.pending_events == 0

    def test_join_into_single_node_network(self):
        space = make_ids(4, 4, 0)[0]
        seed_node = space.from_string("0123")
        joiner = space.from_string("3210")
        from repro.protocol.join import JoinProtocolNetwork
        from repro.protocol.network_init import single_node_table
        from repro.topology.attachment import ConstantLatencyModel

        net = JoinProtocolNetwork(
            space, latency_model=ConstantLatencyModel(1.0), seed=7
        )
        net.add_s_node(seed_node, single_node_table(seed_node))
        run_joins(net, [joiner])
        assert_network_correct(net)
        assert net.table(seed_node).get(0, 0) == joiner
