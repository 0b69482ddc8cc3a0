#!/usr/bin/env python3
"""The paper's join protocol vs a Tapestry-style multicast join.

Quantifies Section 1's design argument: the multicast approach makes
*existing* nodes store and process join state, and its optimistic
handling of concurrency can leave tables inconsistent; the paper's
protocol burdens only joining nodes and is proven consistent for
arbitrary concurrent joins.

Run:  python examples/baseline_comparison.py
"""

import random

from repro.baselines.multicast_join import MulticastJoinNetwork
from repro.ids.idspace import IdSpace
from repro.protocol.join import JoinProtocolNetwork
from repro.topology.attachment import UniformLatencyModel

BASE, DIGITS, N, M, SEED = 4, 5, 120, 40, 33


def workload():
    space = IdSpace(BASE, DIGITS)
    ids = space.random_unique_ids(N + M, random.Random(SEED))
    return space, ids[:N], ids[N:]


def latency(seed):
    return UniformLatencyModel(random.Random(seed), 1.0, 100.0)


def run_protocol(concurrent: bool):
    space, initial, joiners = workload()
    net = JoinProtocolNetwork.from_oracle(
        space, initial, latency_model=latency(1), seed=SEED
    )
    for joiner in joiners:
        net.start_join(joiner, at=0.0 if concurrent else net.runtime.now)
        if not concurrent:
            net.run()
    net.run()
    report = net.check_consistency()
    return {
        "messages/join": round(net.stats.total_messages / M, 1),
        "existing-node join state": 0,
        "consistent": report.consistent,
    }


def run_baseline(concurrent: bool):
    space, initial, joiners = workload()
    net = MulticastJoinNetwork.from_oracle(
        space, initial, latency_model=latency(1), seed=SEED
    )
    for joiner in joiners:
        net.start_join(joiner, at=0.0 if concurrent else net.runtime.now)
        if not concurrent:
            net.run()
    net.run()
    report = net.check_consistency()
    holders = sum(net.mstats.holders_for(j) for j in net.joiner_ids)
    return {
        "messages/join": round(net.stats.total_messages / M, 1),
        "existing-node join state": holders,
        "consistent": report.consistent,
    }


def main() -> None:
    rows = [
        ("paper protocol, sequential", run_protocol(concurrent=False)),
        ("paper protocol, concurrent", run_protocol(concurrent=True)),
        ("multicast join, sequential", run_baseline(concurrent=False)),
        ("multicast join, concurrent", run_baseline(concurrent=True)),
    ]
    keys = ["messages/join", "existing-node join state", "consistent"]
    width = max(len(label) for label, _ in rows)
    print(f"{'scenario':<{width}}  " + "  ".join(f"{k:>24}" for k in keys))
    for label, stats in rows:
        print(
            f"{label:<{width}}  "
            + "  ".join(f"{str(stats[k]):>24}" for k in keys)
        )
    print()
    print(
        "The multicast baseline parks join state on existing nodes and "
        "loses consistency under concurrent joins; the paper's protocol "
        "does neither."
    )


if __name__ == "__main__":
    main()
