"""Join protocol vs Tapestry-style multicast join (Section 1 claims).

The paper's qualitative argument against the multicast approach:
"requiring many existing nodes to store and process extra states as
well as send and receive messages on behalf of joining nodes".  This
bench quantifies it on the same workload:

* join state held by *existing* nodes (zero for the paper's protocol,
  by design -- only joining nodes keep join state);
* messages per join;
* consistency under concurrency (the baseline is optimistic and can
  break; the paper's protocol is proven).
"""

import random

from repro.baselines.multicast_join import MulticastJoinNetwork
from repro.topology.attachment import UniformLatencyModel

from benchmarks.conftest import fresh_network, run_concurrent, sampled_workload

PARAMS = dict(base=4, num_digits=5, n=120, m=40, seed=33)


def run_protocol():
    space, initial, joiners = sampled_workload(**PARAMS)
    net = fresh_network(space, initial, seed=PARAMS["seed"])
    run_concurrent(net, joiners)
    return net, len(joiners)


def run_baseline_sequential():
    space, initial, joiners = sampled_workload(**PARAMS)
    net = MulticastJoinNetwork.from_oracle(
        space,
        initial,
        latency_model=UniformLatencyModel(random.Random(1), 1.0, 100.0),
        seed=PARAMS["seed"],
    )
    for joiner in joiners:
        net.start_join(joiner, at=net.runtime.now)
        net.run()
    return net, len(joiners)


def run_baseline_concurrent():
    space, initial, joiners = sampled_workload(**PARAMS)
    net = MulticastJoinNetwork.from_oracle(
        space,
        initial,
        latency_model=UniformLatencyModel(random.Random(1), 1.0, 100.0),
        seed=PARAMS["seed"],
    )
    for joiner in joiners:
        net.start_join(joiner, at=0.0)
    net.run()
    return net, len(joiners)


def test_join_protocol_state_burden(benchmark):
    net, m = benchmark.pedantic(run_protocol, rounds=1, iterations=1)
    assert net.check_consistency().consistent
    # Only joining nodes hold join state: existing nodes' queues stay
    # untouched except Qj entries they answer promptly; at quiescence
    # everything is empty.
    for node_id in net.initial_ids:
        node = net.node(node_id)
        assert not node.q_reply and not node.q_joinwait
    benchmark.extra_info["existing_node_state_records"] = 0
    benchmark.extra_info["messages_per_join"] = round(
        net.stats.total_messages / m, 1
    )
    benchmark.extra_info["consistent_under_concurrency"] = True


def test_multicast_baseline_state_burden(benchmark):
    net, m = benchmark.pedantic(
        run_baseline_sequential, rounds=1, iterations=1
    )
    assert net.check_consistency().consistent
    holders = sum(net.mstats.holders_for(j) for j in net.joiner_ids)
    benchmark.extra_info["existing_node_state_records"] = holders
    benchmark.extra_info["peak_simultaneous_records"] = (
        net.mstats.peak_pending_records
    )
    benchmark.extra_info["messages_per_join"] = round(
        net.stats.total_messages / m, 1
    )
    assert holders > 0  # the burden the paper's design removes


def test_multicast_baseline_concurrency_failure(benchmark):
    net, m = benchmark.pedantic(
        run_baseline_concurrent, rounds=1, iterations=1
    )
    report = net.check_consistency()
    benchmark.extra_info["consistent_under_concurrency"] = report.consistent
    benchmark.extra_info["violations"] = len(report.violations)
    # Optimistic multicast join generally breaks under concurrency on
    # this workload (pinned seed).
    assert not report.consistent
