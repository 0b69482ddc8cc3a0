"""Tests for the Tapestry-style multicast-join baseline."""

import random

import pytest

from repro.baselines.multicast_join import MulticastJoinNetwork
from repro.ids.idspace import IdSpace
from repro.topology.attachment import UniformLatencyModel

from tests.conftest import MAX_EVENTS


def make_baseline(n=25, m=15, seed=0):
    space = IdSpace(4, 5)
    rng = random.Random(seed)
    ids = space.random_unique_ids(n + m, rng)
    net = MulticastJoinNetwork.from_oracle(
        space,
        ids[:n],
        latency_model=UniformLatencyModel(random.Random(seed + 1)),
        seed=seed,
    )
    return net, ids[:n], ids[n:]


class TestSequentialMulticastJoin:
    @pytest.mark.parametrize("seed", range(5))
    def test_consistent_after_sequential_joins(self, seed):
        net, initial, joiners = make_baseline(seed=seed)
        for joiner in joiners:
            net.start_join(joiner, at=net.runtime.now)
            net.run(max_events=MAX_EVENTS)
        assert net.runtime.quiesced()
        assert net.all_joined()
        report = net.check_consistency()
        assert report.consistent, report.violations[:3]

    def test_existing_nodes_hold_join_state(self):
        """The paper's criticism of the multicast approach: existing
        nodes store per-joiner state during the join."""
        net, initial, joiners = make_baseline(seed=10)
        for joiner in joiners:
            net.start_join(joiner, at=net.runtime.now)
            net.run(max_events=MAX_EVENTS)
        holders = sum(
            net.mstats.holders_for(j) for j in net.joiner_ids
        )
        assert holders > 0
        assert net.mstats.peak_pending_records >= 1

    def test_pending_state_drains(self):
        net, initial, joiners = make_baseline(seed=11)
        for joiner in joiners:
            net.start_join(joiner, at=net.runtime.now)
            net.run(max_events=MAX_EVENTS)
        for node in net.nodes.values():
            assert node.pending == {}
        assert net.mstats.current_pending_records == 0

    def test_gateway_defaults_to_initial_member(self):
        net, initial, joiners = make_baseline(seed=12)
        net.start_join(joiners[0])
        net.run(max_events=MAX_EVENTS)
        assert net.nodes[joiners[0]].joined


class TestConcurrentMulticastJoin:
    def test_optimistic_concurrency_can_break_consistency(self):
        """Concurrent joins under the optimistic multicast baseline are
        not guaranteed consistent -- the gap the paper's protocol
        closes.  At least one seed in this small family must exhibit a
        violation (verified empirically, pinned here)."""
        broken = 0
        for seed in range(5):
            net, initial, joiners = make_baseline(n=25, m=15, seed=seed)
            for joiner in joiners:
                net.start_join(joiner, at=0.0)
            net.run(max_events=MAX_EVENTS)
            if not net.check_consistency().consistent:
                broken += 1
        assert broken >= 1

    def test_all_joins_terminate_even_when_concurrent(self):
        net, initial, joiners = make_baseline(n=25, m=15, seed=3)
        for joiner in joiners:
            net.start_join(joiner, at=0.0)
        net.run(max_events=MAX_EVENTS)
        assert net.runtime.quiesced()
        assert net.all_joined()
