"""Shared experiment utilities: CDFs, summary statistics,
joining-period statistics, and rendering helpers for observability
output (metrics tables, per-phase join latency breakdowns)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer


class Cdf:
    """Empirical cumulative distribution of integer samples.

    Figure 15(b) plots the cumulative distribution of the number of
    JoinNotiMsg sent by each joining node; this class reproduces those
    series.
    """

    def __init__(self, samples: Sequence[int]):
        if not samples:
            raise ValueError("need at least one sample")
        self.samples = sorted(samples)
        self.n = len(self.samples)

    def at(self, value: float) -> float:
        """Fraction of samples <= ``value``."""
        lo, hi = 0, self.n
        while lo < hi:
            mid = (lo + hi) // 2
            if self.samples[mid] <= value:
                lo = mid + 1
            else:
                hi = mid
        return lo / self.n

    def series(self) -> List[Tuple[int, float]]:
        """Points ``(value, F(value))`` at each distinct sample value."""
        out: List[Tuple[int, float]] = []
        seen = 0
        previous = None
        for sample in self.samples:
            seen += 1
            if sample != previous and previous is not None:
                out.append((previous, (seen - 1) / self.n))
            previous = sample
        out.append((previous, 1.0))
        return out

    def quantile(self, q: float) -> int:
        """Smallest sample value with cumulative fraction >= ``q``."""
        if not 0 <= q <= 1:
            raise ValueError("q must be in [0, 1]")
        index = min(self.n - 1, max(0, math.ceil(q * self.n) - 1))
        return self.samples[index]

    @property
    def mean(self) -> float:
        return sum(self.samples) / self.n

    @property
    def max(self) -> int:
        return self.samples[-1]


@dataclass
class Summary:
    """Basic descriptive statistics for a sample of counts."""

    count: int
    mean: float
    minimum: float
    maximum: float
    stddev: float

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return (
            f"n={self.count} mean={self.mean:.3f} min={self.minimum} "
            f"max={self.maximum} sd={self.stddev:.3f}"
        )


def summarize(samples: Sequence[float]) -> Summary:
    """Descriptive statistics (count/mean/min/max/stddev) of samples."""
    if not samples:
        raise ValueError("need at least one sample")
    n = len(samples)
    mean = sum(samples) / n
    variance = sum((s - mean) ** 2 for s in samples) / n
    return Summary(
        count=n,
        mean=mean,
        minimum=min(samples),
        maximum=max(samples),
        stddev=math.sqrt(variance),
    )


def joining_period_stats(network) -> Summary:
    """Lengths of the joining periods ``t^e − t^b`` (Definition 3.1)
    of every joiner in ``network`` -- not shown in the paper's
    evaluation, but they characterize how long a node stays a T-node
    under concurrent load."""
    durations = []
    for joiner in network.joiner_ids:
        node = network.node(joiner)
        if node.join_began_at is None or node.became_s_at is None:
            raise ValueError(f"{joiner} has not completed its join")
        durations.append(node.became_s_at - node.join_began_at)
    return summarize(durations)


def render_cdf_table(
    cdf: Cdf, points: Sequence[int] = (0, 1, 2, 5, 10, 15, 20, 30, 40, 50)
) -> str:
    """Text rendering of a CDF at fixed x positions (Figure 15(b)'s
    x-axis runs 0..50)."""
    lines = ["  #JoinNotiMsg   cumulative fraction"]
    for point in points:
        lines.append(f"  {point:>12}   {cdf.at(point):.4f}")
    return "\n".join(lines)


def render_metrics_table(
    registry: MetricsRegistry, prefix: Optional[str] = None
) -> str:
    """Text rendering of a registry snapshot, sorted by metric name.

    ``prefix`` filters to metrics whose flat name starts with it
    (e.g. ``"messages_sent"`` for the per-type message accounting).
    """
    snapshot = registry.snapshot()
    keys = sorted(k for k in snapshot if prefix is None or k.startswith(prefix))
    if not keys:
        return "  (no metrics)"
    width = max(len(k) for k in keys)
    lines = []
    for key in keys:
        value = snapshot[key]
        rendered = f"{value:g}" if isinstance(value, float) else str(value)
        lines.append(f"  {key:<{width}}   {rendered}")
    return "\n".join(lines)


def join_phase_durations(tracer: Tracer) -> Dict[str, Summary]:
    """Per-phase duration summaries from a join trace.

    Groups the tracer's finished ``phase:*`` spans by phase name and
    summarizes their virtual-time durations -- the "where does the
    joining period go" breakdown that aggregate counters cannot give.
    """
    by_phase: Dict[str, List[float]] = {}
    for span in tracer.spans():
        if not span.name.startswith("phase:") or span.duration is None:
            continue
        by_phase.setdefault(span.name[len("phase:"):], []).append(
            span.duration
        )
    return {
        phase: summarize(durations)
        for phase, durations in sorted(by_phase.items())
    }


def render_phase_table(tracer: Tracer) -> str:
    """Text rendering of :func:`join_phase_durations`."""
    durations = join_phase_durations(tracer)
    if not durations:
        return "  (no phase spans)"
    lines = ["  phase        n    mean      max"]
    for phase, summary in durations.items():
        lines.append(
            f"  {phase:<10} {summary.count:>3}  {summary.mean:>8.2f} "
            f"{summary.maximum:>8.2f}"
        )
    return "\n".join(lines)
