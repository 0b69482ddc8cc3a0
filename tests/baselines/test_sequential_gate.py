"""Tests for the serialized-join helper."""

from repro.baselines.sequential_gate import join_sequentially

from tests.conftest import assert_network_correct, build_network, make_ids


class TestSequentialGate:
    def test_returns_completion_time(self):
        space, ids = make_ids(4, 4, 25, seed=0)
        net = build_network(space, ids[:20], seed=0)
        finished_at = join_sequentially(net, ids[20:], gap=1.0)
        assert finished_at == net.runtime.now
        assert finished_at > 0
        assert_network_correct(net)

    def test_serialization_slower_than_concurrent(self):
        """The benefit of the paper's concurrent-join support: wall
        clock.  Same workload, serialized vs simultaneous starts."""
        space, ids = make_ids(4, 4, 30, seed=1)

        serial = build_network(space, ids[:20], seed=1)
        serial_time = join_sequentially(serial, ids[20:], gap=0.0)

        concurrent = build_network(space, ids[:20], seed=1)
        for joiner in ids[20:]:
            concurrent.start_join(joiner, at=0.0)
        concurrent.run()
        assert_network_correct(concurrent)
        concurrent_time = concurrent.runtime.now

        assert concurrent_time < serial_time

    def test_gap_spaces_out_joins(self):
        space, ids = make_ids(4, 4, 23, seed=2)
        net = build_network(space, ids[:20], seed=2)
        join_sequentially(net, ids[20:], gap=100.0)
        begins = [net.node(j).join_began_at for j in ids[20:]]
        assert begins == sorted(begins)
        assert begins[1] - begins[0] >= 100.0
