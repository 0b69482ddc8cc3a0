"""Mid-run invariant tests: monotone reachability during joins.

Section 3.1: "once a set of nodes can reach each other, they always
can thereafter."  These tests checkpoint that property repeatedly
*while* concurrent joins are in flight, by pausing the runtime every
``interval`` of virtual time and routing between current S-nodes.
"""

import random

import pytest

from repro.routing.router import route

from tests.conftest import build_network, make_ids


def unreachable_s_pairs(net, sample_pairs=None, rng=None):
    """S-node pairs the current tables fail to route between (every
    ordered pair, or ``sample_pairs`` random ones)."""
    s_nodes = [i for i, node in net.nodes.items() if node.status.is_s_node]
    if len(s_nodes) < 2:
        return []
    if sample_pairs is None:
        pairs = [(a, b) for a in s_nodes for b in s_nodes if a != b]
    else:
        pairs = [tuple(rng.sample(s_nodes, 2)) for _ in range(sample_pairs)]
    tables = net.tables()
    return [
        (source, target)
        for source, target in pairs
        if not route(tables.__getitem__, source, target).success
    ]


def checkpointed_run(net, interval, sample_pairs=None, max_checkpoints=200):
    """Run to quiescence, checking S-node reachability every
    ``interval``; return the checkpoint count and the failures."""
    runtime = net.runtime
    rng = random.Random(0)
    checkpoints, failures = 0, []
    while checkpoints < max_checkpoints:
        fired = runtime.run(until=runtime.now + interval)
        failures += unreachable_s_pairs(net, sample_pairs, rng)
        checkpoints += 1
        if runtime.quiesced() and fired == 0:
            break
    runtime.run()
    return checkpoints, failures


class TestMidRunInvariants:
    @pytest.mark.parametrize("seed", range(4))
    def test_s_node_reachability_throughout_joins(self, seed):
        space, ids = make_ids(4, 4, 35, seed=seed)
        net = build_network(space, ids[:20], seed=seed)
        for joiner in ids[20:]:
            net.start_join(joiner, at=0.0)
        checkpoints, failures = checkpointed_run(net, interval=20.0)
        assert not failures, failures[:5]
        assert checkpoints > 3
        assert net.check_consistency().consistent

    def test_monitor_with_sampled_pairs(self):
        space, ids = make_ids(4, 4, 40, seed=10)
        net = build_network(space, ids[:25], seed=10)
        for joiner in ids[25:]:
            net.start_join(joiner, at=0.0)
        checkpoints, failures = checkpointed_run(
            net, interval=15.0, sample_pairs=30
        )
        assert not failures, failures[:5]

    def test_monitor_detects_planted_violation(self):
        """Sanity: the check is not vacuous -- a sabotaged table is
        caught."""
        from repro.routing.table import NeighborTable
        from repro.routing.entry import NeighborState

        space, ids = make_ids(4, 4, 20, seed=11)
        net = build_network(space, ids, seed=11)
        victim = net.node(ids[0])
        crippled = NeighborTable(ids[0])
        for level in range(space.num_digits):
            crippled.set_entry(
                level, ids[0].digit(level), ids[0], NeighborState.S
            )
        victim.table = crippled
        assert unreachable_s_pairs(net)

    def test_monitor_on_single_node_network(self):
        from repro.protocol.join import JoinProtocolNetwork
        from repro.protocol.network_init import single_node_table
        from repro.topology.attachment import ConstantLatencyModel

        space, ids = make_ids(4, 4, 1, seed=12)
        net = JoinProtocolNetwork(
            space, latency_model=ConstantLatencyModel(1.0)
        )
        net.add_s_node(ids[0], single_node_table(ids[0]))
        checkpoints, failures = checkpointed_run(net, interval=5.0)
        assert not failures
        assert checkpoints == 1
