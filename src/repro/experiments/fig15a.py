"""Figure 15(a): theoretical upper bound of E(J) vs network size.

The paper plots the Theorem 5 upper bound for ``n`` from 10,000 to
100,000 with four configurations: ``m`` in {500, 1000} and ``d`` in
{8, 40}, ``b = 16``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.analysis.expected_cost import expected_join_noti_upper_bound


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


def render_figure15a(
    configs: Sequence[Fig15aConfig] = FIG15A_CONFIGS,
    n_values: Sequence[int] = FIG15A_N_VALUES,
) -> str:
    """Text table with one column per curve (the figure's four lines)."""
    header = "       n  " + "  ".join(f"{c.label:>18}" for c in configs)
    lines = [header]
    series = [dict(figure15a_series(c, n_values)) for c in configs]
    for n in n_values:
        row = f"{n:>8}  " + "  ".join(
            f"{s[n]:>18.3f}" for s in series
        )
        lines.append(row)
    return "\n".join(lines)
