"""Multi-seed sweeps and joining-period statistics.

Single simulation runs are noisy; the sweep driver repeats an
experiment across seeds and aggregates (mean, standard deviation,
envelope) so benches can report statistically steadier numbers.  Also
provides joining-period analytics (Definition 3.1's ``[t^b, t^e]``),
which the paper's evaluation does not show but which characterize how
long a node stays a T-node under concurrent load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.exec import ExecutionBackend, InlineBackend
from repro.experiments.fig15b import Fig15bConfig, Fig15bResult, run_fig15b
from repro.experiments.harness import Summary, summarize


@dataclass
class SweepStats:
    """Aggregate of one scalar metric across seeds."""

    label: str
    per_seed: List[float]

    @property
    def mean(self) -> float:
        return sum(self.per_seed) / len(self.per_seed)

    @property
    def stddev(self) -> float:
        mean = self.mean
        return math.sqrt(
            sum((v - mean) ** 2 for v in self.per_seed) / len(self.per_seed)
        )

    @property
    def minimum(self) -> float:
        return min(self.per_seed)

    @property
    def maximum(self) -> float:
        return max(self.per_seed)

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return (
            f"{self.label}: {self.mean:.3f} +/- {self.stddev:.3f} "
            f"[{self.minimum:.3f}, {self.maximum:.3f}] "
            f"({len(self.per_seed)} seeds)"
        )


@dataclass
class Fig15bSweep:
    """Aggregated Figure 15(b) results across seeds."""

    config: Fig15bConfig
    results: List[Fig15bResult]

    @property
    def mean_join_noti(self) -> SweepStats:
        return SweepStats(
            "mean JoinNotiMsg",
            [r.mean_join_noti for r in self.results],
        )

    @property
    def all_consistent(self) -> bool:
        return all(r.consistent for r in self.results)

    @property
    def theorem5_bound(self) -> float:
        return self.results[0].theorem5_bound

    @property
    def bound_never_exceeded(self) -> bool:
        return all(
            r.mean_join_noti < r.theorem5_bound for r in self.results
        )


def sweep_configs(
    config: Fig15bConfig, seeds: Sequence[int]
) -> List[Fig15bConfig]:
    """Per-seed copies of ``config`` (the sweep's task list)."""
    return [replace(config, seed=seed) for seed in seeds]


def sweep_fig15b(
    config: Fig15bConfig,
    seeds: Sequence[int],
    backend: Optional[ExecutionBackend] = None,
) -> Fig15bSweep:
    """Run one Figure 15(b) configuration across several seeds, on
    ``backend`` (default inline; e.g. a process pool or a
    :class:`repro.exec.RemoteBackend` fleet).

    Each run derives all randomness from its own config, so the
    results -- and any aggregate over them -- are identical on every
    backend.
    """
    results = (backend or InlineBackend()).map(
        run_fig15b, sweep_configs(config, seeds)
    )
    return Fig15bSweep(config, results)


def joining_period_stats(network) -> Summary:
    """Lengths of the joining periods ``t^e − t^b`` (Definition 3.1)
    of every joiner in ``network``."""
    durations = []
    for joiner in network.joiner_ids:
        node = network.node(joiner)
        if node.join_began_at is None or node.became_s_at is None:
            raise ValueError(f"{joiner} has not completed its join")
        durations.append(node.became_s_at - node.join_began_at)
    return summarize(durations)
