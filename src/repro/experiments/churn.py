"""The churn lifecycle experiment (property P4, end to end).

A scripted run through every membership operation this repository
implements: concurrent joins, serialized voluntary leaves, crash
failures plus recovery, and a final optimization pass -- with a
consistency verdict after every phase.  Used by ``python -m repro
churn``, the churn example, and the lifecycle tests.

Like every campaign task, :func:`run_churn` is self-seeding (all
randomness derives from :class:`ChurnConfig`), so a multi-seed churn
campaign, ``backend.map(run_churn, seeded_configs(config, seeds))``,
runs on any execution backend -- serial, process pool, or a remote
worker fleet -- with identical results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro.experiments.workloads import SMALL_TOPOLOGY, make_workload
from repro.optimize import measure_stretch, optimize_tables
from repro.protocol.leave import leave_sequentially
from repro.recovery import RecoveryReport, fail_nodes, recover_from_failures
from repro.topology.transit_stub import TransitStubParams


@dataclass(frozen=True)
class ChurnConfig:
    n: int = 150
    m: int = 50
    leaves: int = 30
    failures: int = 20
    base: int = 16
    num_digits: int = 8
    seed: int = 0
    use_topology: bool = True
    topology_params: Optional[TransitStubParams] = None


@dataclass
class PhaseOutcome:
    name: str
    members: int
    consistent: bool
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        suffix = f"  ({self.detail})" if self.detail else ""
        return (
            f"{self.name:<22} members={self.members:4d} "
            f"consistent={self.consistent}{suffix}"
        )


@dataclass
class ChurnResult:
    config: ChurnConfig
    phases: List[PhaseOutcome] = field(default_factory=list)
    recovery: Optional[RecoveryReport] = None
    stretch_before: float = 0.0
    stretch_after: float = 0.0

    @property
    def all_consistent(self) -> bool:
        return all(phase.consistent for phase in self.phases)


def run_churn(config: ChurnConfig) -> ChurnResult:
    """Run the full lifecycle and return per-phase outcomes."""
    rng = random.Random(config.seed)
    workload = make_workload(
        base=config.base,
        num_digits=config.num_digits,
        n=config.n,
        m=config.m,
        seed=config.seed,
        use_topology=config.use_topology,
        topology_params=config.topology_params,
    )
    net = workload.network
    result = ChurnResult(config)

    def checkpoint(name: str, detail: str = "") -> None:
        result.phases.append(
            PhaseOutcome(
                name,
                len(net.member_ids()),
                net.check_consistency().consistent,
                detail,
            )
        )

    checkpoint("bootstrap")

    workload.start_all_joins(at=net.runtime.now)
    workload.run()
    checkpoint(f"{config.m} concurrent joins")

    leavers = rng.sample(net.member_ids(), config.leaves)
    leave_sequentially(net, leavers)
    checkpoint(f"{config.leaves} leaves")

    victims = rng.sample(net.member_ids(), config.failures)
    fail_nodes(net, victims)
    result.recovery = recover_from_failures(net)
    checkpoint(
        f"{config.failures} crashes + recovery",
        detail=str(result.recovery),
    )

    if config.use_topology:
        before = measure_stretch(net, sample_pairs=150)
        optimize_tables(net)
        after = measure_stretch(net, sample_pairs=150)
        result.stretch_before = before.mean_stretch
        result.stretch_after = after.mean_stretch
        checkpoint(
            "optimization",
            detail=(
                f"stretch {before.mean_stretch:.2f} -> "
                f"{after.mean_stretch:.2f}"
            ),
        )
    return result

