"""Delivery-order robustness.

The paper assumes reliable delivery but NOT FIFO channels, and the
proof never orders messages between different pairs.  The protocol
must therefore produce consistent tables under any latency regime.
These tests run the same workload under qualitatively different
models: constant delay (synchronous rounds), tiny jitter (near-FIFO),
heavy-tailed ("bimodal": most messages fast, some extremely slow --
maximal reordering), and per-pair asymmetric delays.
"""

import random

import pytest

from repro.ids.idspace import IdSpace
from repro.protocol.join import JoinProtocolNetwork
from repro.topology.attachment import (
    ConstantLatencyModel,
    LatencyModel,
    UniformLatencyModel,
)

from tests.conftest import MAX_EVENTS, assert_network_correct


class BimodalLatencyModel(LatencyModel):
    """90% fast (1-2), 10% two orders of magnitude slower."""

    def __init__(self, rng):
        self._rng = rng

    def latency(self, src, dst):
        if self._rng.random() < 0.1:
            return self._rng.uniform(200.0, 500.0)
        return self._rng.uniform(1.0, 2.0)


class AsymmetricLatencyModel(LatencyModel):
    """Deterministic per-ordered-pair delay: A->B and B->A differ."""

    def latency(self, src, dst):
        return 1.0 + (hash((src, dst)) % 97) / 10.0


def run_workload(latency_model, seed=0):
    space = IdSpace(4, 4)
    rng = random.Random(seed)
    ids = space.random_unique_ids(35, rng)
    net = JoinProtocolNetwork.from_oracle(
        space, ids[:20], latency_model=latency_model, seed=seed
    )
    for joiner in ids[20:]:
        net.start_join(joiner, at=0.0)
    net.run(max_events=MAX_EVENTS)
    assert net.runtime.quiesced()
    return net


class TestDeliveryOrders:
    def test_constant_delay(self):
        net = run_workload(ConstantLatencyModel(1.0), seed=1)
        assert_network_correct(net)

    def test_near_fifo_jitter(self):
        net = run_workload(
            UniformLatencyModel(random.Random(2), 1.0, 1.01), seed=2
        )
        assert_network_correct(net)

    @pytest.mark.parametrize("seed", range(4))
    def test_bimodal_heavy_reordering(self, seed):
        net = run_workload(
            BimodalLatencyModel(random.Random(seed + 10)), seed=seed
        )
        assert_network_correct(net)

    def test_asymmetric_pairs(self):
        net = run_workload(AsymmetricLatencyModel(), seed=3)
        assert_network_correct(net)

    def test_same_workload_all_models_agree_on_membership(self):
        """Different orders may build different (valid) tables, but
        membership and consistency are model-independent."""
        models = [
            ConstantLatencyModel(1.0),
            UniformLatencyModel(random.Random(4), 1.0, 100.0),
            BimodalLatencyModel(random.Random(5)),
        ]
        memberships = []
        for model in models:
            net = run_workload(model, seed=7)
            assert_network_correct(net)
            memberships.append(frozenset(net.member_ids()))
        assert len(set(memberships)) == 1
