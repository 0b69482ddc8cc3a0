"""Figure 15(a): theoretical upper bound of E(J) vs network size.

The paper plots the Theorem 5 upper bound for ``n`` from 10,000 to
100,000 with four configurations: ``m`` in {500, 1000} and ``d`` in
{8, 40}, ``b = 16``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.expected_cost import expected_join_noti_upper_bound
from repro.exec import ExecutionBackend, InlineBackend
from repro.exec.registry import remote_task


@dataclass(frozen=True)
class Fig15aConfig:
    m: int
    base: int
    num_digits: int

    @property
    def label(self) -> str:
        return f"m={self.m}, b={self.base}, d={self.num_digits}"


#: The four curves of Figure 15(a), in legend order.
FIG15A_CONFIGS: Tuple[Fig15aConfig, ...] = (
    Fig15aConfig(m=500, base=16, num_digits=40),
    Fig15aConfig(m=1000, base=16, num_digits=40),
    Fig15aConfig(m=500, base=16, num_digits=8),
    Fig15aConfig(m=1000, base=16, num_digits=8),
)

#: The paper's x axis.
FIG15A_N_VALUES: Tuple[int, ...] = tuple(
    range(10_000, 100_001, 10_000)
)


def figure15a_series(
    config: Fig15aConfig,
    n_values: Sequence[int] = FIG15A_N_VALUES,
) -> List[Tuple[int, float]]:
    """One curve: ``(n, upper bound of E(J))`` points."""
    return [
        (
            n,
            expected_join_noti_upper_bound(
                n, config.m, config.base, config.num_digits
            ),
        )
        for n in n_values
    ]


@remote_task("fig15a-series")
def _series_task(
    task: Tuple[Fig15aConfig, Tuple[int, ...]]
) -> List[Tuple[int, float]]:
    """Picklable, wire-codable per-curve task for the execution
    engine."""
    config, n_values = task
    return figure15a_series(config, n_values)


def figure15a_all_series(
    configs: Sequence[Fig15aConfig] = FIG15A_CONFIGS,
    n_values: Sequence[int] = FIG15A_N_VALUES,
    backend: Optional[ExecutionBackend] = None,
) -> List[List[Tuple[int, float]]]:
    """All curves, one per config, on ``backend`` (default inline; the
    closed-form bound is cheap at the paper's scale but grows with
    ``n`` sweeps; the engine keeps curve order regardless)."""
    return (backend or InlineBackend()).map(
        _series_task, [(config, tuple(n_values)) for config in configs]
    )


def render_figure15a(
    configs: Sequence[Fig15aConfig] = FIG15A_CONFIGS,
    n_values: Sequence[int] = FIG15A_N_VALUES,
) -> str:
    """Text table with one column per curve (the figure's four lines)."""
    header = "       n  " + "  ".join(f"{c.label:>18}" for c in configs)
    lines = [header]
    series = [
        dict(curve)
        for curve in figure15a_all_series(configs, n_values)
    ]
    for n in n_values:
        row = f"{n:>8}  " + "  ".join(
            f"{s[n]:>18.3f}" for s in series
        )
        lines.append(row)
    return "\n".join(lines)
