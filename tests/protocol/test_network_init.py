"""Section 6.1: network initialization from a single node."""

import pytest

from repro.protocol.join import JoinProtocolNetwork
from repro.protocol.network_init import initialize_network, single_node_table
from repro.protocol.status import NodeStatus
from repro.routing.entry import NeighborState

from tests.conftest import (
    MAX_EVENTS,
    assert_network_correct,
    make_ids,
)
from repro.topology.attachment import UniformLatencyModel
import random


def make_net(space, seed=0):
    return JoinProtocolNetwork(
        space,
        latency_model=UniformLatencyModel(random.Random(seed), 1.0, 50.0),
        seed=seed,
    )


class TestSingleNodeTable:
    def test_matches_section_6_1(self):
        space, ids = make_ids(4, 4, 1)
        table = single_node_table(ids[0])
        # N_x(i, x[i]) = x with state S; everything else null.
        for level in range(space.num_digits):
            for digit in range(space.base):
                if digit == ids[0].digit(level):
                    assert table.get(level, digit) == ids[0]
                    assert table.state(level, digit) is NeighborState.S
                else:
                    assert table.get(level, digit) is None


class TestInitializeNetwork:
    def test_concurrent_bootstrap(self):
        space, ids = make_ids(4, 4, 25, seed=1)
        net = make_net(space, seed=1)
        initialize_network(net, ids, stagger=0.0)
        net.run(max_events=MAX_EVENTS)
        assert net.runtime.quiesced()
        assert_network_correct(net)

    def test_staggered_bootstrap(self):
        space, ids = make_ids(4, 4, 15, seed=2)
        net = make_net(space, seed=2)
        initialize_network(net, ids, stagger=5.0)
        net.run(max_events=MAX_EVENTS)
        assert_network_correct(net)

    def test_seed_node_is_s_node_from_start(self):
        space, ids = make_ids(4, 4, 5, seed=3)
        net = make_net(space, seed=3)
        initialize_network(net, ids, stagger=0.0)
        assert net.node(ids[0]).status is NodeStatus.IN_SYSTEM
        net.run(max_events=MAX_EVENTS)
        assert_network_correct(net)

    def test_bootstrap_matches_oracle_consistency(self):
        """Protocol bootstrap and oracle construction both satisfy
        Definition 3.8 for the same membership."""
        from repro.consistency.checker import check_consistency
        from repro.routing.oracle import build_consistent_tables

        space, ids = make_ids(4, 4, 20, seed=4)
        net = make_net(space, seed=4)
        initialize_network(net, ids, stagger=0.0)
        net.run(max_events=MAX_EVENTS)
        assert check_consistency(net.tables()).consistent
        assert check_consistency(build_consistent_tables(ids)).consistent

    def test_empty_id_list_rejected(self):
        space, _ = make_ids(4, 4, 0)
        net = make_net(space)
        with pytest.raises(ValueError):
            initialize_network(net, [])

    def test_two_node_bootstrap(self):
        space, ids = make_ids(4, 4, 2, seed=5)
        net = make_net(space, seed=5)
        initialize_network(net, ids)
        net.run(max_events=MAX_EVENTS)
        assert_network_correct(net)
