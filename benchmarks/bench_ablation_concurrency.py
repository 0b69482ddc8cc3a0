"""Ablation: concurrent joins vs a serializing gate.

The value of Theorem 1's concurrency support, in virtual time: the
same m joins finish far sooner when started simultaneously than when
serialized one-at-a-time (the trivially safe alternative).
"""

from repro.baselines.sequential_gate import join_sequentially

from benchmarks.conftest import fresh_network, run_concurrent, sampled_workload

PARAMS = dict(base=16, num_digits=8, n=200, m=60)


def run_concurrent_workload():
    space, initial, joiners = sampled_workload(seed=17, **PARAMS)
    net = fresh_network(space, initial, seed=17)
    run_concurrent(net, joiners)
    assert net.check_consistency().consistent
    return net.runtime.now


def run_serialized_workload():
    space, initial, joiners = sampled_workload(seed=17, **PARAMS)
    net = fresh_network(space, initial, seed=17)
    finished_at = join_sequentially(net, joiners, gap=0.0)
    assert net.check_consistency().consistent
    return finished_at


def run_both():
    return {
        "concurrent": run_concurrent_workload(),
        "serialized": run_serialized_workload(),
    }


def test_concurrency_speedup(benchmark):
    times = benchmark.pedantic(run_both, rounds=1, iterations=1)
    speedup = times["serialized"] / times["concurrent"]
    benchmark.extra_info["virtual_time_concurrent"] = round(
        times["concurrent"], 1
    )
    benchmark.extra_info["virtual_time_serialized"] = round(
        times["serialized"], 1
    )
    benchmark.extra_info["speedup"] = round(speedup, 1)
    assert speedup > 5.0
