"""The concurrent-join campaign task (CLI ``repro join --seeds``, the
join-cost benches, the ``campaign`` benchmark).

A campaign is ``backend.map(run_join_task, seeded_configs(config,
seeds))`` on any :class:`repro.exec.ExecutionBackend`.  The task is
self-seeding -- every RNG it uses derives from its config -- so the
results are independent of scheduling order, worker count and backend,
and :meth:`~repro.exec.ExecutionBackend.map` merges them in task order.
The config and result types are named on the wire by
:mod:`repro.exec.taskcodec`, and the task function is registered there
as ``"join"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exec.registry import remote_task
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
    """One self-seeding concurrent-join simulation (CLI ``repro join``,
    the join-cost benches): ``n`` initial nodes, ``m`` simultaneous
    joiners, IDs from a ``(base, num_digits)`` space."""

    base: int = 16
    num_digits: int = 8
    n: int = 300
    m: int = 100
    seed: int = 0
    use_topology: bool = False
    topology_params: Optional[TransitStubParams] = None
    sizing: SizingPolicy = SizingPolicy.FULL


@dataclass(frozen=True)
class JoinTaskResult:
    """Aggregate outcome of one :class:`JoinTaskConfig` run.

    Carries everything the CLI and benches report; comparable with
    ``==`` so serial/parallel/remote equivalence can be asserted
    directly.
    """

    seed: int
    consistent: bool
    all_in_system: bool
    members: int
    mean_join_noti: float
    max_theorem3: int
    total_messages: int
    total_bytes: int
    message_counts: Tuple[Tuple[str, int], ...] = field(default=())

    def counts_dict(self) -> Dict[str, int]:
        """Per-type message counts as a plain dict."""
        return dict(self.message_counts)


@remote_task("join")
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
    counts = net.join_noti_counts()
    return JoinTaskResult(
        seed=config.seed,
        consistent=report.consistent,
        all_in_system=net.all_in_system(),
        members=len(net.member_ids()),
        mean_join_noti=sum(counts) / len(counts) if counts else 0.0,
        max_theorem3=max(net.theorem3_counts()),
        total_messages=net.stats.total_messages,
        total_bytes=net.stats.total_bytes,
        message_counts=tuple(sorted(net.stats.snapshot().items())),
    )


def seeded_configs(
    config: JoinTaskConfig, seeds: Sequence[int]
) -> List[JoinTaskConfig]:
    """Copies of ``config`` differing only in seed (a seed sweep)."""
    return [replace(config, seed=seed) for seed in seeds]
