"""Tests for multi-seed Figure 15(b) sweeps and joining-period
statistics."""

import pytest

from repro.exec import InlineBackend
from repro.experiments.harness import joining_period_stats, summarize
from repro.experiments.parallel import (
    JoinTaskConfig,
    run_join_task,
    seeded_configs,
)

from tests.conftest import build_network, make_ids, run_joins


class TestFig15bSweep:
    def test_three_seed_sweep(self):
        config = JoinTaskConfig(
            n=80,
            m=25,
            base=16,
            num_digits=8,
            use_topology=True,
        )
        results = InlineBackend().map(
            run_join_task, seeded_configs(config, [0, 1, 2])
        )
        assert [r.seed for r in results] == [0, 1, 2]
        assert all(r.consistent for r in results)
        assert all(r.mean_join_noti < config.theorem5_bound for r in results)
        stats = summarize([r.mean_join_noti for r in results])
        assert stats.minimum <= stats.mean <= stats.maximum
        # Different seeds produce different workloads.
        assert len({r.mean_join_noti for r in results}) > 1


class TestJoiningPeriods:
    def test_stats_after_concurrent_joins(self):
        space, ids = make_ids(4, 4, 30, seed=0)
        net = build_network(space, ids[:20], seed=0)
        run_joins(net, ids[20:])
        stats = joining_period_stats(net)
        assert stats.count == 10
        assert stats.minimum > 0
        assert stats.maximum >= stats.mean >= stats.minimum

    def test_incomplete_join_rejected(self):
        space, ids = make_ids(4, 4, 21, seed=1)
        net = build_network(space, ids[:20], seed=1)
        net.start_join(ids[20], at=1000.0)  # scheduled, never run
        with pytest.raises(ValueError):
            joining_period_stats(net)
