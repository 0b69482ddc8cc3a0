"""Figure 15(b): simulated JoinNotiMsg distribution per joiner.

Scaled-down reproduction of the paper's concurrent-join simulation on
a transit-stub topology (same code path as the 8320-router full run;
see examples/figure15b_full.py for paper-scale parameters).  Records
the CDF spot values, the mean, and the Theorem 5 bound.
"""

from repro.experiments.parallel import JoinTaskConfig, run_join_task
from repro.experiments.workloads import SMALL_TOPOLOGY


def scaled_config(num_digits):
    return JoinTaskConfig(
        n=400,
        m=130,
        base=16,
        num_digits=num_digits,
        seed=42,
        use_topology=True,
        topology_params=SMALL_TOPOLOGY,
    )


def _record(benchmark, num_digits, result):
    bound = scaled_config(num_digits).theorem5_bound
    benchmark.extra_info["mean_join_noti"] = round(result.mean_join_noti, 3)
    benchmark.extra_info["theorem5_bound"] = round(bound, 3)
    benchmark.extra_info["cdf_at_5"] = round(result.cdf.at(5), 3)
    benchmark.extra_info["cdf_at_20"] = round(result.cdf.at(20), 3)
    benchmark.extra_info["max"] = result.cdf.max
    assert result.consistent
    assert result.all_in_system
    assert result.theorem3_violations == 0
    assert result.mean_join_noti < bound


def test_fig15b_d8(benchmark):
    result = benchmark.pedantic(
        run_join_task, args=(scaled_config(8),), rounds=1, iterations=1
    )
    _record(benchmark, 8, result)


def test_fig15b_d40(benchmark):
    result = benchmark.pedantic(
        run_join_task, args=(scaled_config(40),), rounds=1, iterations=1
    )
    _record(benchmark, 40, result)
