"""Experiment harness: regenerates every table and figure of the paper.

* :mod:`~repro.experiments.harness` -- CDFs and summary statistics.
* :mod:`~repro.experiments.workloads` -- ID sampling and network setup.
* :mod:`~repro.experiments.fig1` -- the Figure 1 example neighbor table.
* :mod:`~repro.experiments.fig2` -- the Figure 2 C-set tree example.
* :mod:`~repro.experiments.fig15a` -- Theorem 5 upper-bound curves.
* :mod:`~repro.experiments.fig15b` -- the paper's Figure 15(b)
  configurations (CDF of JoinNotiMsg per joiner on a transit-stub
  topology).
* :mod:`~repro.experiments.parallel` -- the concurrent-join task that
  runs them; campaigns map it on any :mod:`repro.exec` backend.
"""

from repro.experiments.fig1 import figure1_example
from repro.experiments.fig2 import figure2_example
from repro.experiments.fig15a import figure15a_series, FIG15A_CONFIGS
from repro.experiments.harness import (
    Cdf,
    join_phase_durations,
    render_metrics_table,
    render_phase_table,
    summarize,
)
from repro.experiments.parallel import (
    JoinTaskConfig,
    JoinTaskResult,
    run_join_task,
)

__all__ = [
    "Cdf",
    "join_phase_durations",
    "render_metrics_table",
    "render_phase_table",
    "FIG15A_CONFIGS",
    "JoinTaskConfig",
    "JoinTaskResult",
    "figure15a_series",
    "figure1_example",
    "figure2_example",
    "run_join_task",
]
