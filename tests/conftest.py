"""Shared test helpers and fixtures."""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

import pytest

from repro.ids.digits import NodeId
from repro.ids.idspace import IdSpace
from repro.protocol.join import JoinProtocolNetwork
from repro.protocol.sizing import SizingPolicy
from repro.topology.attachment import (
    ConstantLatencyModel,
    UniformLatencyModel,
)

#: Watchdog for sim runs in tests: generous, but stops runaway loops.
MAX_EVENTS = 2_000_000


def make_ids(
    base: int, num_digits: int, count: int, seed: int = 0
) -> Tuple[IdSpace, List[NodeId]]:
    space = IdSpace(base, num_digits)
    rng = random.Random(seed)
    return space, space.random_unique_ids(count, rng)


def build_network(
    space: IdSpace,
    initial: Sequence[NodeId],
    seed: int = 0,
    constant_latency: bool = False,
    sizing: SizingPolicy = SizingPolicy.FULL,
) -> JoinProtocolNetwork:
    if constant_latency:
        latency = ConstantLatencyModel(1.0)
    else:
        latency = UniformLatencyModel(
            random.Random(f"lat-{seed}"), low=1.0, high=100.0
        )
    return JoinProtocolNetwork.from_oracle(
        space, initial, latency_model=latency, sizing=sizing, seed=seed
    )


def run_joins(
    network: JoinProtocolNetwork,
    joiners: Sequence[NodeId],
    start_times: Optional[Sequence[float]] = None,
) -> JoinProtocolNetwork:
    """Start the given joins (simultaneously unless offsets are given;
    offsets are relative to the current virtual time) and run to
    quiescence, asserting the watchdog is not hit."""
    if start_times is None:
        start_times = [0.0] * len(joiners)
    base = network.runtime.now
    for joiner, at in zip(joiners, start_times):
        network.start_join(joiner, at=base + at)
    network.run(max_events=MAX_EVENTS)
    assert network.runtime.quiesced(), "simulation hit the event watchdog"
    return network


def assert_network_correct(network: JoinProtocolNetwork) -> None:
    """The paper's two theorems: consistency and termination."""
    assert network.all_in_system(), (
        "Theorem 2 violated: statuses "
        f"{ {str(k): str(v) for k, v in network.statuses().items() if not v.is_s_node} }"
    )
    report = network.check_consistency()
    assert report.consistent, (
        "Theorem 1 violated: "
        + "; ".join(str(v) for v in report.violations[:5])
    )


@pytest.fixture
def small_space() -> IdSpace:
    return IdSpace(base=4, num_digits=4)
