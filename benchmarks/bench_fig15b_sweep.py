"""Figure 15(b) across seeds: statistical stability of the result.

A single simulation is one sample; this bench repeats the scaled
configuration over five seeds and reports mean +/- stddev of the mean
JoinNotiMsg count, checking every run stays under the Theorem 5 bound
and consistent.

The per-seed runs go through the execution engine of
:mod:`repro.exec`; set ``REPRO_BENCH_JOBS`` to fan them over that many
worker processes, or ``REPRO_BENCH_BACKEND`` (plus
``REPRO_BENCH_WORKERS=host:port,...`` for ``remote``) to pick a
backend explicitly (results are identical for any choice).
"""

import os

from repro.exec import create_backend
from repro.experiments.harness import summarize
from repro.experiments.parallel import (
    JoinTaskConfig,
    run_join_task,
    seeded_configs,
)
from repro.experiments.workloads import SMALL_TOPOLOGY

CONFIG = JoinTaskConfig(
    n=300,
    m=100,
    base=16,
    num_digits=8,
    use_topology=True,
    topology_params=SMALL_TOPOLOGY,
)

SEEDS = range(5)


def bench_jobs() -> int:
    """Worker-process count for benches (``REPRO_BENCH_JOBS``, default 1)."""
    return int(os.environ.get("REPRO_BENCH_JOBS", "1"))


def bench_backend():
    """The engine backend ``REPRO_BENCH_BACKEND``, ``REPRO_BENCH_JOBS``
    and ``REPRO_BENCH_WORKERS`` select (inline when none is set)."""
    workers = os.environ.get("REPRO_BENCH_WORKERS")
    return create_backend(
        os.environ.get("REPRO_BENCH_BACKEND") or None,
        jobs=bench_jobs(),
        workers=[w.strip() for w in workers.split(",") if w.strip()]
        if workers else None,
    )


def run_sweep():
    with bench_backend() as backend:
        return backend.map(run_join_task, seeded_configs(CONFIG, SEEDS))


def test_fig15b_seed_sweep(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    stats = summarize([r.mean_join_noti for r in results])
    bound = CONFIG.theorem5_bound
    benchmark.extra_info["jobs"] = bench_jobs()
    benchmark.extra_info["mean_of_means"] = round(stats.mean, 3)
    benchmark.extra_info["stddev"] = round(stats.stddev, 3)
    benchmark.extra_info["envelope"] = (
        f"[{stats.minimum:.3f}, {stats.maximum:.3f}]"
    )
    benchmark.extra_info["theorem5_bound"] = round(bound, 3)
    assert all(r.consistent for r in results)
    assert all(r.mean_join_noti < bound for r in results)
    # The seed-to-seed spread is modest relative to the bound gap.
    assert stats.maximum < bound
