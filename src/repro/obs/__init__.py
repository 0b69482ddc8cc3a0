"""Observability: structured tracing and metrics for the simulator.

The paper's evaluation is an exercise in *counting* -- JoinNotiMsg per
joiner (Figure 15(b)), ``CpRstMsg + JoinWaitMsg <= d+1`` (Theorem 3),
bytes saved by message-size reduction (Section 6.2) -- and its
correctness argument lives in *interleavings* of the join phases.
This package makes both first-class:

* :class:`~repro.obs.tracer.Tracer` -- hierarchical spans over
  simulator virtual time (one ``join`` root per joiner, one
  ``phase:*`` child per protocol phase) plus point events
  (``message.send`` / ``message.deliver``).
* :class:`~repro.obs.metrics.MetricsRegistry` -- labelled counters,
  gauges and histograms; :class:`~repro.network.stats.MessageStats`
  is backed by one, so every message counter is also a metric.
* Exporters -- JSONL traces (round-trippable) and flat dict/CSV
  metrics snapshots.
* :class:`~repro.obs.tracer.NullTracer` -- the disabled path;
  instrumented components fall back to their original code so a
  run without observability pays (almost) nothing.

On top of the recording tier sits the analysis tier:

* :class:`~repro.obs.causality.CausalForest` -- per-join causal
  message trees (every message is stamped with trace-id/parent-id at
  send) with virtual-time critical-path extraction.
* :mod:`~repro.obs.lifecycle` -- reconstructs each joiner's protocol
  state machine from phase spans and flags illegal transitions or
  stalls.
* :class:`~repro.obs.audit.LiveAuditor` -- samples Definition 3.8
  consistency and the Theorem 3/4/5 gates *during* the run
  (``repro join --audit``).
* :class:`~repro.obs.report.RunReport` -- ``repro report``: text /
  JSON / HTML analytics over a trace JSONL file.
* :mod:`~repro.obs.remote` -- distributed telemetry: per-daemon
  recording bundles (:class:`~repro.obs.remote.RemoteTelemetry`),
  NTP-style clock alignment (:class:`~repro.obs.remote.ClockSync`) and
  :func:`~repro.obs.remote.merge_traces`, which folds every daemon's
  trace into one stream the analysis tier consumes unchanged.

Typical use::

    from repro.obs import Observability, write_trace_jsonl

    obs = Observability.tracing()
    net = JoinProtocolNetwork.from_oracle(space, ids, obs=obs, seed=1)
    ...
    write_trace_jsonl(obs.tracer, "run.jsonl")
    print(obs.metrics.snapshot())

The re-exports resolve lazily (PEP 562): importing the recording tier
(:mod:`~repro.obs.instrument`, which the protocol core uses) never
loads the analysis tier or the distributed-telemetry module.
"""

from typing import List

# name -> module that defines it; resolved on first attribute access.
_EXPORTS = {
    "AuditConfig": "repro.obs.audit",
    "AuditIncident": "repro.obs.audit",
    "AuditReport": "repro.obs.audit",
    "AuditSample": "repro.obs.audit",
    "LiveAuditor": "repro.obs.audit",
    "CausalForest": "repro.obs.causality",
    "CausalityError": "repro.obs.causality",
    "MessageRecord": "repro.obs.causality",
    "message_type_breakdown": "repro.obs.export",
    "message_type_csv": "repro.obs.export",
    "metrics_to_csv": "repro.obs.export",
    "metrics_to_dict": "repro.obs.export",
    "read_message_type_csv": "repro.obs.export",
    "read_trace_jsonl": "repro.obs.export",
    "trace_to_records": "repro.obs.export",
    "write_message_type_csv": "repro.obs.export",
    "write_metrics_csv": "repro.obs.export",
    "write_trace_jsonl": "repro.obs.export",
    "write_trace_records": "repro.obs.export",
    "JoinObserver": "repro.obs.instrument",
    "Observability": "repro.obs.instrument",
    "collect_table_metrics": "repro.obs.instrument",
    "JOIN_PHASE_ORDER": "repro.obs.lifecycle",
    "JoinLifecycle": "repro.obs.lifecycle",
    "LifecycleReport": "repro.obs.lifecycle",
    "PhaseInterval": "repro.obs.lifecycle",
    "lifecycles_from_tracer": "repro.obs.lifecycle",
    "reconstruct_lifecycles": "repro.obs.lifecycle",
    "Counter": "repro.obs.metrics",
    "Gauge": "repro.obs.metrics",
    "Histogram": "repro.obs.metrics",
    "MetricsError": "repro.obs.metrics",
    "MetricsRegistry": "repro.obs.metrics",
    "ClockSample": "repro.obs.remote",
    "ClockSync": "repro.obs.remote",
    "ClockSyncError": "repro.obs.remote",
    "DaemonTrace": "repro.obs.remote",
    "RemoteTelemetry": "repro.obs.remote",
    "merge_traces": "repro.obs.remote",
    "RunReport": "repro.obs.report",
    "NullTracer": "repro.obs.tracer",
    "Span": "repro.obs.tracer",
    "TraceEvent": "repro.obs.tracer",
    "Tracer": "repro.obs.tracer",
    "TracerError": "repro.obs.tracer",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Resolve a re-exported name on first use (PEP 562)."""
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_EXPORTS))
