"""Joining-period lengths (Definition 3.1) under concurrent load.

Not a paper figure, but the natural liveness companion to Theorem 2:
how long does a node stay a T-node?  Measured across a three-seed
sweep on the transit-stub topology, in units of the topology's
latencies (milliseconds).
"""

from repro.experiments.harness import joining_period_stats
from repro.experiments.workloads import SMALL_TOPOLOGY, make_workload


def run_sweep():
    stats = []
    for seed in (0, 1, 2):
        workload = make_workload(
            base=16,
            num_digits=8,
            n=300,
            m=100,
            seed=seed,
            use_topology=True,
            topology_params=SMALL_TOPOLOGY,
        )
        workload.start_all_joins()
        workload.run()
        assert workload.network.all_in_system()
        stats.append(joining_period_stats(workload.network))
    return stats


def test_joining_periods(benchmark):
    stats = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    means = [s.mean for s in stats]
    maxes = [s.maximum for s in stats]
    benchmark.extra_info["mean_period_ms"] = round(
        sum(means) / len(means), 1
    )
    benchmark.extra_info["max_period_ms"] = round(max(maxes), 1)
    # Liveness sanity: joining periods are bounded by a small number of
    # round trips, not by network size.
    assert max(maxes) < 10_000
