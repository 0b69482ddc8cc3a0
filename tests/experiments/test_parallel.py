"""Tests for campaign fan-out on the execution backends.

The load-bearing property throughout: ``backend.map(fn, tasks)``
equals ``[fn(t) for t in tasks]`` for every backend, worker count and
chunk size -- the simulation campaign results must not depend on how
they were scheduled.  The concurrent-join task itself lives in
:mod:`repro.experiments.parallel`.
"""

import os

import pytest

from repro.exec import (
    InlineBackend,
    ProcessPoolBackend,
    default_chunksize,
    resolve_jobs,
)
from repro.experiments.parallel import (
    JoinTaskConfig,
    run_join_task,
    seeded_configs,
)


def _square(x):
    """Module-level so worker processes can unpickle it."""
    return x * x


class TestResolveJobs:
    def test_positive_passthrough(self):
        assert resolve_jobs(3) == 3

    def test_none_and_zero_mean_cpu_count(self):
        expected = os.cpu_count() or 1
        assert resolve_jobs(None) == expected
        assert resolve_jobs(0) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestDefaultChunksize:
    def test_spreads_tasks_over_workers(self):
        assert default_chunksize(32, 2) == 4
        assert default_chunksize(8, 4) == 1

    def test_never_below_one(self):
        assert default_chunksize(0, 4) == 1
        assert default_chunksize(3, 8) == 1


class TestParallelMap:
    """``backend.map`` on the inline and pool backends."""

    def test_empty(self):
        with ProcessPoolBackend(jobs=4) as pool:
            assert pool.map(_square, []) == []

    def test_serial_path_preserves_order(self):
        assert InlineBackend().map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_parallel_equals_serial(self):
        tasks = list(range(17))
        serial = InlineBackend().map(_square, tasks)
        for jobs in (2, 4):
            for chunksize in (None, 1, 3, 17):
                pool = ProcessPoolBackend(jobs=jobs, chunksize=chunksize)
                with pool:
                    assert pool.map(_square, tasks) == serial

    def test_progress_reaches_total(self):
        calls = []
        with ProcessPoolBackend(jobs=2, chunksize=2) as pool:
            pool.map(
                _square, list(range(7)),
                progress=lambda done, total: calls.append((done, total)),
            )
        dones = [done for done, _ in calls]
        assert dones == sorted(dones)
        assert calls[-1][0] == 7
        assert all(total == 7 for _, total in calls)

    def test_serial_progress_after_every_task(self):
        calls = []
        with ProcessPoolBackend(jobs=1) as pool:
            pool.map(
                _square, [5, 6],
                progress=lambda done, total: calls.append((done, total)),
            )
        assert calls == [(1, 2), (2, 2)]

    def test_single_task_short_circuits(self):
        # jobs > 1 with one task must not pay for an executor.
        with ProcessPoolBackend(jobs=8) as pool:
            assert pool.map(_square, [7]) == [49]


class TestSeededConfigs:
    def test_only_seed_varies(self):
        base = JoinTaskConfig(n=50, m=10, seed=0)
        configs = seeded_configs(base, [4, 9])
        assert [c.seed for c in configs] == [4, 9]
        assert all(c.n == 50 and c.m == 10 for c in configs)


class TestJoinTasks:
    def test_jobs_invariant_results(self):
        configs = seeded_configs(
            JoinTaskConfig(base=16, num_digits=8, n=60, m=20), [0, 1, 2]
        )
        serial = InlineBackend().map(run_join_task, configs)
        with ProcessPoolBackend(jobs=3) as pool:
            parallel = pool.map(run_join_task, configs)
        assert serial == parallel
        assert all(r.consistent and r.all_in_system for r in serial)
        assert [r.seed for r in serial] == [0, 1, 2]


class TestSweepJobsEquivalence:
    def test_sweep_identical_across_jobs(self):
        """An inline Figure 15(b) sweep and one on a 4-worker pool
        agree per seed, down to every joiner's JoinNotiMsg count."""
        configs = seeded_configs(
            JoinTaskConfig(n=60, m=20, use_topology=True), [0, 1, 2, 3]
        )
        serial = InlineBackend().map(run_join_task, configs)
        with ProcessPoolBackend(jobs=4) as pool:
            parallel = pool.map(run_join_task, configs)
        # Equality covers every field, join_noti_counts included.
        assert serial == parallel
        assert all(r.consistent for r in serial)
