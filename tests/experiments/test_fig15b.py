"""Figure 15(b) reproduction tests (scaled-down configurations)."""

from repro.experiments.fig15b import PAPER_CONFIGS
from repro.experiments.parallel import JoinTaskConfig, run_join_task
from repro.experiments.workloads import SMALL_TOPOLOGY


def scaled_config(**overrides):
    defaults = dict(
        n=200,
        m=60,
        base=16,
        num_digits=8,
        seed=0,
        use_topology=True,
        topology_params=SMALL_TOPOLOGY,
    )
    defaults.update(overrides)
    return JoinTaskConfig(**defaults)


class TestFig15bScaled:
    def test_run_produces_correct_network(self):
        result = run_join_task(scaled_config())
        assert result.consistent
        assert result.all_in_system
        assert result.theorem3_violations == 0
        assert len(result.join_noti_counts) == 60

    def test_mean_below_theorem5_bound(self):
        config = scaled_config(seed=1)
        result = run_join_task(config)
        assert result.mean_join_noti < config.theorem5_bound

    def test_cdf_shape_majority_send_few(self):
        """Figure 15(b)'s qualitative shape: the majority of joiners
        send a small number of JoinNotiMsg."""
        result = run_join_task(scaled_config(seed=2))
        cdf = result.cdf
        assert cdf.at(10) >= 0.5
        assert cdf.at(result.cdf.max) == 1.0

    def test_uniform_latency_variant(self):
        result = run_join_task(
            scaled_config(seed=3, use_topology=False)
        )
        assert result.consistent
        assert result.all_in_system

    def test_d40_variant(self):
        result = run_join_task(scaled_config(seed=4, num_digits=40, n=120, m=40))
        assert result.consistent
        assert result.all_in_system
        assert result.theorem3_violations == 0

    def test_paper_configs_defined(self):
        assert len(PAPER_CONFIGS) == 4
        assert {c.n for c in PAPER_CONFIGS} == {3096, 7192}
        assert {c.num_digits for c in PAPER_CONFIGS} == {8, 40}
        for config in PAPER_CONFIGS:
            assert config.topology_params.num_routers == 8320
