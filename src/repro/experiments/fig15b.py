"""Figure 15(b): simulated distribution of JoinNotiMsg per joiner.

The paper's setups: a GT-ITM topology with 8320 routers; either 4096
end-hosts (3096 form the initial consistent network, 1000 join) or 8192
end-hosts (7192 initial, 1000 join); ``b = 16``, ``d`` in {8, 40}; all
joins start at the same time.  Reported: the CDF of the number of
JoinNotiMsg sent per joining node, its average (6.117 / 6.051 / 5.026 /
5.399) and the Theorem 5 bound (8.001 / 8.001 / 6.986 / 6.986).

:func:`run_fig15b` reproduces one configuration; the default
parameters are scaled down so tests and benches stay fast, while
``examples/figure15b_full.py`` runs the paper-scale settings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.expected_cost import (
    expected_join_noti_upper_bound,
    theorem3_bound,
)
from repro.exec.registry import remote_task
from repro.experiments.harness import Cdf, summarize
from repro.experiments.workloads import make_workload
from repro.topology.transit_stub import TransitStubParams


@dataclass(frozen=True)
class Fig15bConfig:
    """One Figure 15(b) configuration.

    The paper-scale configurations are ``n`` in {3096, 7192},
    ``m = 1000``, ``base = 16``, ``num_digits`` in {8, 40}, with the
    default (8320-router) topology.
    """

    n: int = 300
    m: int = 100
    base: int = 16
    num_digits: int = 8
    seed: int = 0
    use_topology: bool = True
    #: None selects the scaled-down default topology of
    #: :data:`repro.experiments.workloads.SMALL_TOPOLOGY`; the paper
    #: configs pass ``TransitStubParams()`` (8320 routers).
    topology_params: Optional[TransitStubParams] = None

    @property
    def label(self) -> str:
        return (
            f"n={self.n}, m={self.m}, b={self.base}, d={self.num_digits}"
        )


@dataclass
class Fig15bResult:
    config: Fig15bConfig
    join_noti_counts: List[int]
    theorem5_bound: float
    theorem3_violations: int
    consistent: bool
    all_in_system: bool
    total_messages: int
    message_counts: dict

    @property
    def cdf(self) -> Cdf:
        return Cdf(self.join_noti_counts)

    @property
    def mean_join_noti(self) -> float:
        return sum(self.join_noti_counts) / len(self.join_noti_counts)

    def summary(self) -> str:
        """One-line human-readable result summary."""
        stats = summarize(self.join_noti_counts)
        return (
            f"{self.config.label}: mean JoinNotiMsg {stats.mean:.3f} "
            f"(Theorem 5 bound {self.theorem5_bound:.3f}), max {stats.maximum}, "
            f"consistent={self.consistent}"
        )


@remote_task("fig15b")
def run_fig15b(config: Fig15bConfig) -> Fig15bResult:
    """Run one Figure 15(b) configuration to quiescence (registered as
    the ``"fig15b"`` wire task for remote sweep workers)."""
    workload = make_workload(
        base=config.base,
        num_digits=config.num_digits,
        n=config.n,
        m=config.m,
        seed=config.seed,
        use_topology=config.use_topology,
        topology_params=config.topology_params,
    )
    workload.start_all_joins(at=0.0)
    workload.run()

    network = workload.network
    counts = network.join_noti_counts()
    bound = theorem3_bound(config.num_digits)
    violations = sum(
        1 for c in network.theorem3_counts() if c > bound
    )
    report = network.check_consistency()
    return Fig15bResult(
        config=config,
        join_noti_counts=counts,
        theorem5_bound=expected_join_noti_upper_bound(
            config.n, config.m, config.base, config.num_digits
        ),
        theorem3_violations=violations,
        consistent=report.consistent,
        all_in_system=network.all_in_system(),
        total_messages=network.stats.total_messages,
        message_counts=network.stats.snapshot(),
    )


#: The paper's four configurations, at full scale (8320-router topology).
PAPER_CONFIGS = tuple(
    Fig15bConfig(
        n=n,
        m=1000,
        base=16,
        num_digits=d,
        use_topology=True,
        topology_params=TransitStubParams(),
    )
    for n in (3096, 7192)
    for d in (8, 40)
)
