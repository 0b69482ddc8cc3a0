"""Ablation: Section 6.2 message-size reductions.

Same workload under the FULL and REDUCED sizing policies; both must
produce consistent networks, and REDUCED must shrink the bytes moved
by the table-carrying JoinNotiMsg / JoinNotiRlyMsg exchanges.
"""

from repro.protocol.sizing import SizingPolicy

from benchmarks.conftest import fresh_network, run_concurrent, sampled_workload

PARAMS = dict(base=16, num_digits=8, n=300, m=100)


def run_policy(sizing):
    space, initial, joiners = sampled_workload(seed=9, **PARAMS)
    net = fresh_network(space, initial, seed=9, sizing=sizing)
    run_concurrent(net, joiners)
    assert net.check_consistency().consistent
    by_type = net.stats.registry.values_by_label("message_bytes", "type")
    return {
        "noti_bytes": by_type["JoinNotiMsg"],
        "noti_rly_bytes": by_type["JoinNotiRlyMsg"],
        "total_bytes": net.stats.total_bytes,
    }


def run_both():
    return {
        "full": run_policy(SizingPolicy.FULL),
        "reduced": run_policy(SizingPolicy.REDUCED),
    }


def test_message_size_reduction(benchmark):
    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    full, reduced = results["full"], results["reduced"]
    noti_saving = 1 - (
        (reduced["noti_bytes"] + reduced["noti_rly_bytes"])
        / (full["noti_bytes"] + full["noti_rly_bytes"])
    )
    benchmark.extra_info["full_noti_bytes"] = (
        full["noti_bytes"] + full["noti_rly_bytes"]
    )
    benchmark.extra_info["reduced_noti_bytes"] = (
        reduced["noti_bytes"] + reduced["noti_rly_bytes"]
    )
    benchmark.extra_info["noti_exchange_saving"] = f"{noti_saving:.1%}"
    benchmark.extra_info["total_saving"] = (
        f"{1 - reduced['total_bytes'] / full['total_bytes']:.1%}"
    )
    assert noti_saving > 0.1  # the reduction must be material
