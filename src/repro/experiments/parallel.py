"""The concurrent-join task: Figure 15(b)'s simulation, and every
campaign over it (CLI ``repro fig15b``, ``sweep`` and ``join
--seeds``, the join-cost benches, the ``campaign`` benchmark).

A campaign is ``backend.map(run_join_task, seeded_configs(config,
seeds))`` on any :class:`repro.exec.ExecutionBackend`.  The task is
self-seeding -- every RNG it uses derives from its config -- so the
results are independent of scheduling order, worker count and backend,
and :meth:`~repro.exec.ExecutionBackend.map` merges them in task order.
The config and result types are named on the wire by
:mod:`repro.exec.taskcodec`; remote workers resolve the task function
by its dotted name.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.analysis.expected_cost import (
    expected_join_noti_upper_bound,
    theorem3_bound,
)
from repro.experiments.harness import Cdf
from repro.experiments.workloads import make_workload
from repro.protocol.sizing import SizingPolicy
from repro.topology.transit_stub import TransitStubParams

__all__ = [
    "JoinTaskConfig",
    "JoinTaskResult",
    "run_join_task",
    "seeded_configs",
]


@dataclass(frozen=True)
class JoinTaskConfig:
    """One self-seeding concurrent-join simulation: ``n`` initial
    nodes, ``m`` simultaneous joiners, IDs from a ``(base,
    num_digits)`` space.

    Figure 15(b)'s configurations set ``use_topology=True``: ``None``
    ``topology_params`` then selects the scaled-down
    :data:`repro.experiments.workloads.SMALL_TOPOLOGY`, and the paper
    configs pass ``TransitStubParams()`` (8320 routers).
    """

    base: int = 16
    num_digits: int = 8
    n: int = 300
    m: int = 100
    seed: int = 0
    use_topology: bool = False
    topology_params: Optional[TransitStubParams] = None
    sizing: SizingPolicy = SizingPolicy.FULL

    @property
    def label(self) -> str:
        return (
            f"n={self.n}, m={self.m}, b={self.base}, d={self.num_digits}"
        )

    @property
    def theorem5_bound(self) -> float:
        """Theorem 5's upper bound on the mean JoinNotiMsg per joiner."""
        return expected_join_noti_upper_bound(
            self.n, self.m, self.base, self.num_digits
        )


@dataclass(frozen=True)
class JoinTaskResult:
    """Outcome of one :class:`JoinTaskConfig` run.

    Carries everything the CLI, the sweep archive and the benches
    report; comparable with ``==`` so serial/parallel/remote
    equivalence can be asserted directly.
    """

    seed: int
    consistent: bool
    all_in_system: bool
    members: int
    #: JoinNotiMsg sent by each joiner (Figure 15(b)'s samples).
    join_noti_counts: Tuple[int, ...]
    max_theorem3: int
    #: Nodes whose CpRstMsg + JoinWaitMsg count exceeds ``d + 1``.
    theorem3_violations: int
    total_messages: int
    total_bytes: int
    message_counts: Tuple[Tuple[str, int], ...] = field(default=())

    @property
    def mean_join_noti(self) -> float:
        counts = self.join_noti_counts
        return sum(counts) / len(counts) if counts else 0.0

    @property
    def max_join_noti(self) -> int:
        return max(self.join_noti_counts)

    @property
    def cdf(self) -> Cdf:
        return Cdf(self.join_noti_counts)

    def counts_dict(self) -> Dict[str, int]:
        """Per-type message counts as a plain dict."""
        return dict(self.message_counts)


def run_join_task(config: JoinTaskConfig) -> JoinTaskResult:
    """Run one concurrent-join experiment to quiescence (picklable,
    wire-codable top-level task function for ``backend.map``)."""
    workload = make_workload(
        base=config.base,
        num_digits=config.num_digits,
        n=config.n,
        m=config.m,
        seed=config.seed,
        use_topology=config.use_topology,
        topology_params=config.topology_params,
        sizing=config.sizing,
    )
    workload.start_all_joins(at=0.0)
    workload.run()
    net = workload.network
    report = net.check_consistency()
    theorem3 = net.theorem3_counts()
    bound = theorem3_bound(config.num_digits)
    return JoinTaskResult(
        seed=config.seed,
        consistent=report.consistent,
        all_in_system=net.all_in_system(),
        members=len(net.member_ids()),
        join_noti_counts=tuple(net.join_noti_counts()),
        max_theorem3=max(theorem3),
        theorem3_violations=sum(1 for c in theorem3 if c > bound),
        total_messages=net.stats.total_messages,
        total_bytes=net.stats.total_bytes,
        message_counts=tuple(sorted(net.stats.snapshot().items())),
    )


Config = TypeVar("Config")


def seeded_configs(config: Config, seeds: Sequence[int]) -> List[Config]:
    """Copies of the dataclass ``config`` differing only in seed (a
    seed sweep's task list)."""
    return [replace(config, seed=seed) for seed in seeds]
