"""Instrumentation glue between the obs layer and the simulator stack.

This module owns everything that *connects* tracing/metrics to the
running system, keeping the Tracer and MetricsRegistry themselves free
of protocol knowledge:

* :class:`Observability` -- the bundle (tracer + registry) threaded
  through :class:`~repro.protocol.join.JoinProtocolNetwork`.
* :class:`JoinObserver` -- turns the join state machine's phase
  transitions (``copying -> waiting -> notifying -> in_system``) into
  nested spans and a join-latency histogram.
* :func:`publish_runtime` -- the runtime's event count and queue
  depth, read as metrics.
* :func:`collect_table_metrics` -- per-level neighbor-table fill
  gauges, computed from final tables.

To avoid an import cycle (``protocol.join`` imports this module), no
name from :mod:`repro.protocol` is imported here; phase observers read
the status' ``value``/``is_s_node`` attributes duck-typed.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NullTracer, Span, Tracer


class Observability:
    """The bundle handed to instrumented components.

    ``tracer`` may be a :class:`~repro.obs.tracer.NullTracer` while
    ``metrics`` stays live -- that is the cheap configuration used by
    ``--metrics`` without ``--trace``.
    """

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.tracer = tracer if tracer is not None else NullTracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    @classmethod
    def tracing(cls) -> "Observability":
        """Full instrumentation: live tracer plus registry."""
        return cls(tracer=Tracer())

    @classmethod
    def metrics_only(cls) -> "Observability":
        """Registry-backed metrics, tracing disabled (NullTracer)."""
        return cls(tracer=NullTracer())

    @property
    def tracing_enabled(self) -> bool:
        """Whether span/event recording is live."""
        return self.tracer.enabled


class JoinObserver:
    """Builds the join-lifecycle span tree from phase transitions.

    Per joining node: a root span ``join`` opened at ``begin_join``,
    one child span ``phase:<status>`` per protocol phase, closed and
    reopened at each transition.  When the node reaches *in_system*
    the root closes and the ``join_latency`` histogram gets the
    joining period t^e - t^b (Definition 3.1).
    """

    def __init__(self, obs: Observability):
        self.obs = obs
        self._live: Dict[Any, Tuple[Span, Optional[Span]]] = {}
        self._latency = obs.metrics.histogram("join_latency")
        self._phase_counter = obs.metrics.counter

    def on_phase(self, node_id: Any, status: Any, time: float) -> None:
        """Record ``node_id`` entering ``status`` at virtual ``time``.

        The first call for a node opens its root span; a transition to
        a status whose ``is_s_node`` is true closes it.
        """
        tracer = self.obs.tracer
        phase = getattr(status, "value", str(status))
        self._phase_counter("join_phase_transitions", phase=phase).inc()
        entry = self._live.get(node_id)
        if entry is None:
            root = tracer.start_span("join", time, node=str(node_id))
            phase_span = tracer.start_span(
                f"phase:{phase}", time, parent=root, node=str(node_id)
            )
            self._live[node_id] = (root, phase_span)
            return
        root, phase_span = entry
        if phase_span is not None:
            tracer.end_span(phase_span, time)
        if getattr(status, "is_s_node", False):
            tracer.end_span(root, time)
            self._latency.observe(time - root.start)
            del self._live[node_id]
        else:
            self._live[node_id] = (
                root,
                tracer.start_span(
                    f"phase:{phase}", time, parent=root, node=str(node_id)
                ),
            )

    def open_joins(self) -> int:
        """Joins begun but not yet *in_system* (0 after quiescence)."""
        return len(self._live)


def publish_runtime(runtime: Any, registry: MetricsRegistry) -> None:
    """Collector: the runtime's ``events_fired`` and ``pending_events``
    as ``sim_events_fired`` and ``sim_queue_depth``.

    Register it as ``partial(publish_runtime, runtime)``: it reads the
    runtime's own tallies when the registry is read, so a run pays
    nothing per event for them.  The registry holds the runtime, never
    the network that owns it.  The simulator adds a run's events to
    ``events_fired`` when the run returns, so a read from inside a run
    sees the count as the run began.
    """
    registry.counter("sim_events_fired").value = runtime.events_fired
    registry.gauge("sim_queue_depth").set(runtime.pending_events)


def collect_table_metrics(
    tables: Dict[Any, Any], registry: MetricsRegistry
) -> Dict[int, float]:
    """Record per-level neighbor-table fill gauges from final tables.

    ``tables`` maps node IDs to
    :class:`~repro.routing.table.NeighborTable`; for each level the
    gauge ``table_fill{level=i}`` is set to the mean number of filled
    entries at that level across all tables.  Returns the per-level
    means keyed by level.
    """
    totals: Dict[int, int] = {}
    if not tables:
        return {}
    for table in tables.values():
        for entry in table.entries():
            totals[entry.level] = totals.get(entry.level, 0) + 1
    n = len(tables)
    means = {level: count / n for level, count in sorted(totals.items())}
    for level, mean in means.items():
        registry.gauge("table_fill", level=level).set(mean)
    registry.gauge("table_fill_nodes").set(n)
    return means
