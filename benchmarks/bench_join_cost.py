"""Communication cost breakdown of the join protocol (Section 5.2).

Regenerates the per-message-type accounting behind the paper's cost
analysis: big messages (table-carrying) vs small messages, per join.

The seed loop runs on an execution backend of :mod:`repro.exec`; set
``REPRO_BENCH_JOBS`` to fan the seeds over worker processes, or
``REPRO_BENCH_BACKEND`` (plus ``REPRO_BENCH_WORKERS=host:port,...`` for
``remote``) to pick a backend explicitly.
"""

import os

from repro.exec import create_backend
from repro.experiments.parallel import (
    JoinTaskConfig,
    run_join_task,
    seeded_configs,
)

BIG = ("CpRstMsg", "JoinWaitMsg", "JoinNotiMsg")
SMALL = (
    "InSysNotiMsg",
    "SpeNotiMsg",
    "SpeNotiRlyMsg",
    "RvNghNotiMsg",
    "RvNghNotiRlyMsg",
)

CONFIG = JoinTaskConfig(base=16, num_digits=8, n=400, m=120, seed=21)
SEEDS = (21, 22, 23)


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


def run_workloads():
    with bench_backend() as backend:
        return backend.map(run_join_task, seeded_configs(CONFIG, SEEDS))


def test_join_cost_breakdown(benchmark):
    results = benchmark.pedantic(run_workloads, rounds=1, iterations=1)
    m = CONFIG.m
    benchmark.extra_info["jobs"] = bench_jobs()
    benchmark.extra_info["seeds"] = list(SEEDS)
    per_seed_counts = [r.counts_dict() for r in results]
    for result in results:
        assert result.consistent
        assert result.all_in_system
    for name in BIG + SMALL:
        mean = sum(c.get(name, 0) for c in per_seed_counts) / len(results)
        benchmark.extra_info[f"{name}_per_join"] = round(mean / m, 3)
    big_total = sum(
        c.get(name, 0) for c in per_seed_counts for name in BIG
    )
    benchmark.extra_info["big_messages_per_join"] = round(
        big_total / (m * len(results)), 3
    )
    benchmark.extra_info["total_bytes_per_join"] = round(
        sum(r.total_bytes for r in results) / (m * len(results))
    )
    # Each big message has exactly one reply (Section 5.2).
    for counts in per_seed_counts:
        assert counts.get("CpRstMsg") == counts.get("CpRlyMsg")
        assert counts.get("JoinWaitMsg") == counts.get("JoinWaitRlyMsg")
        assert counts.get("JoinNotiMsg") == counts.get("JoinNotiRlyMsg")
