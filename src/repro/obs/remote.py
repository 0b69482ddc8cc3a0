"""Distributed telemetry: per-daemon recording and cluster-wide merge.

The simulator records one run with one tracer under one clock.  A
deployed cluster has neither: every daemon owns a private tracer whose
timestamps are *local* protocol time (derived from its own wall
clock), and the evidence of one causal message tree is scattered
across processes -- the ``message.send`` lives in the sender's trace,
the ``message.deliver`` in the receiver's.  This module closes that
gap in three pieces:

* :class:`RemoteTelemetry` -- the bundle a daemon records into (one
  :class:`~repro.obs.tracer.Tracer` + one
  :class:`~repro.obs.metrics.MetricsRegistry`), exported either as
  bounded pages over the control protocol (:meth:`~RemoteTelemetry.
  export_page` -- one page fits one datagram) or spooled to a JSONL
  file on disk.
* :class:`ClockSample` / :class:`ClockSync` -- NTP-style offset
  estimation.  The collector samples each daemon's ``clock`` control
  op, keeps the minimum-RTT sample (the packet-selection rule), and
  anchors that daemon's timeline at the sample's midpoint.  Only an
  *affine* correction is applied per daemon, so the within-daemon
  event order -- the order causal validation depends on -- is
  preserved exactly.
* :func:`merge_traces` -- maps every daemon's records onto one global
  protocol-time axis (origin at the cluster's earliest record),
  namespaces span ids as ``"<daemon>:<id>"`` so they cannot collide,
  and returns ``(spans, events)`` lists in the exact shape
  :func:`~repro.obs.export.read_trace_jsonl` produces -- i.e. a merged
  multi-process run feeds :class:`~repro.obs.causality.CausalForest`,
  :mod:`~repro.obs.lifecycle` and :class:`~repro.obs.report.RunReport`
  unchanged.

Message ids need no rewriting: the datagram transport stamps
``"<node-id>#<counter>"`` strings that are already cluster-unique and
cross the wire inside the message envelope, so the sender-recorded
``message.send`` and the receiver-recorded ``message.deliver`` meet on
the same id in the merged stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.export import write_trace_jsonl
from repro.obs.instrument import Observability
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

#: Records per telemetry page.  Sized so a page of span/event dicts
#: JSON-encodes comfortably under the 65507-byte datagram ceiling
#: (records run ~100-250 bytes; 150 of them stay under ~40 KiB).
DEFAULT_PAGE_LIMIT = 150

#: Rounding applied to merged timestamps; matches the report tier's
#: stable-float policy so merged output is byte-deterministic.
MERGE_DECIMALS = 6


class RemoteTelemetry:
    """One daemon's recording surface: tracer + metrics + export.

    ``node`` labels exported pages (set once the daemon knows its node
    id); ``spool_path`` enables JSONL spooling --
    :meth:`write_spool` rewrites the whole file, because spans mutate
    when they close, so appending would freeze them half-open.
    """

    def __init__(
        self, node: str = "?", spool_path: Optional[str] = None
    ):
        self.node = node
        self.spool_path = spool_path
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()

    def observability(self) -> Observability:
        """The :class:`Observability` bundle over this telemetry, for
        instrumentation helpers (:class:`~repro.obs.instrument.
        JoinObserver`) that expect one."""
        return Observability(tracer=self.tracer, metrics=self.metrics)

    # -- export ---------------------------------------------------------

    def export_page(
        self,
        spans_from: int = 0,
        events_from: int = 0,
        limit: int = DEFAULT_PAGE_LIMIT,
    ) -> Dict[str, Any]:
        """One bounded page of trace records (control-op response body).

        Pages walk spans first, then events, ``limit`` records total;
        ``next`` carries the ``[spans_from, events_from]`` cursor of
        the following page and ``done`` says whether it would be
        empty.  Tracer lists are append-only, so a cursor taken from
        one page stays valid for the next request even while the
        daemon keeps recording.  A negative cursor is answered with
        ``{"error": ...}``: as a slice start it would count from the
        end, and a collector following ``next`` would re-read the
        trace from the start.
        """
        if spans_from < 0 or events_from < 0:
            return {
                "error": f"negative cursor [{spans_from}, {events_from}]"
            }
        limit = max(1, int(limit))
        spans = self.tracer.spans()
        events = self.tracer.events()
        page_spans = [
            span.to_record()
            for span in spans[spans_from:spans_from + limit]
        ]
        room = limit - len(page_spans)
        page_events = [
            event.to_record()
            for event in events[events_from:events_from + room]
        ] if room > 0 else []
        next_spans = spans_from + len(page_spans)
        next_events = events_from + len(page_events)
        return {
            "node": self.node,
            "spans": page_spans,
            "events": page_events,
            "next": [next_spans, next_events],
            "done": next_spans >= len(spans) and next_events >= len(events),
        }

    def write_spool(self, path: Optional[str] = None) -> Optional[int]:
        """Write the full trace JSONL to ``path`` (default: the
        configured spool path); returns records written, or ``None``
        when no path is configured."""
        target = path if path is not None else self.spool_path
        if target is None:
            return None
        return write_trace_jsonl(self.tracer, target)

    def __len__(self) -> int:
        return len(self.tracer)


# -- clock alignment --------------------------------------------------------


@dataclass(frozen=True)
class ClockSample:
    """One round trip against a daemon's ``clock`` control op:
    collector wall clock at send (``t0``) and receive (``t1``), the
    daemon's wall clock in between (``server_wall``)."""

    t0: float
    server_wall: float
    t1: float

    @property
    def rtt(self) -> float:
        """Round-trip time of this sample (seconds)."""
        return self.t1 - self.t0

    @property
    def midpoint(self) -> float:
        """Collector-clock estimate of the instant the daemon read its
        clock (the symmetric-delay assumption)."""
        return (self.t0 + self.t1) / 2.0

    @property
    def offset(self) -> float:
        """Estimated daemon-minus-collector clock offset (seconds)."""
        return self.server_wall - self.midpoint


class ClockSyncError(ValueError):
    """Clock synchronization attempted with no usable samples."""


class ClockSync:
    """A daemon's clock relation to the collector, from RTT samples.

    Keeps the minimum-RTT sample -- its midpoint estimate has the
    tightest error bound (error <= rtt/2), which is NTP's selection
    rule -- and exposes the chosen offset plus the conversion both
    directions.
    """

    def __init__(self, samples: Sequence[ClockSample]):
        if not samples:
            raise ClockSyncError("no clock samples")
        self.samples = list(samples)
        self.best = min(self.samples, key=lambda s: s.rtt)
        self.offset = self.best.offset
        self.rtt = self.best.rtt

    def to_collector_wall(self, server_wall: float) -> float:
        """Translate a daemon wall-clock reading to collector time."""
        return server_wall - self.offset

    def __repr__(self) -> str:  # pragma: no cover - repr sugar
        return (
            f"ClockSync(offset={self.offset * 1000.0:+.3f}ms "
            f"rtt={self.rtt * 1000.0:.3f}ms n={len(self.samples)})"
        )


# -- merge ------------------------------------------------------------------


@dataclass
class DaemonTrace:
    """One daemon's exported records plus its timeline anchor.

    ``anchor_now`` is the daemon's protocol time at the instant it
    reported ``anchor server wall``; ``anchor_collector_wall`` is the
    collector-clock estimate of that same instant (the min-RTT
    sample's midpoint).  The affine map

        collector_wall(t) = anchor_collector_wall
                            + (t - anchor_now) * time_scale

    places every local protocol timestamp on the collector's axis
    while preserving the daemon's own event order exactly.
    """

    name: str
    spans: List[Dict[str, Any]] = field(default_factory=list)
    events: List[Dict[str, Any]] = field(default_factory=list)
    anchor_now: float = 0.0
    anchor_collector_wall: float = 0.0
    time_scale: float = 1.0
    clock_offset: float = 0.0
    clock_rtt: float = 0.0


def _namespace(name: str, span_id: Any) -> Optional[str]:
    return None if span_id is None else f"{name}:{span_id}"


def merge_traces(
    daemons: Sequence[DaemonTrace],
) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Merge per-daemon traces onto one global protocol-time axis.

    Returns ``(spans, events)`` in ``read_trace_jsonl`` shape: span
    ids (and parent/``span`` references) rewritten to
    ``"<daemon>:<id>"``, all timestamps re-expressed in protocol units
    of the first daemon's ``time_scale`` with the cluster-wide
    earliest record at 0, rounded to :data:`MERGE_DECIMALS` and sorted
    deterministically.  Message-level attrs (the causal ids) pass
    through untouched.
    """
    if not daemons:
        return [], []
    out_scale = daemons[0].time_scale or 1.0

    def to_wall(trace: DaemonTrace, t: Optional[float]) -> Optional[float]:
        if t is None:
            return None
        return trace.anchor_collector_wall + (
            (t - trace.anchor_now) * trace.time_scale
        )

    walls: List[float] = []
    staged: List[Tuple[DaemonTrace, Dict[str, Any], str]] = []
    for trace in daemons:
        for record in trace.spans:
            staged.append((trace, record, "span"))
            walls.append(to_wall(trace, record.get("start", 0.0)))
            if record.get("end") is not None:
                walls.append(to_wall(trace, record["end"]))
        for record in trace.events:
            staged.append((trace, record, "event"))
            walls.append(to_wall(trace, record.get("time", 0.0)))
    origin = min(walls) if walls else 0.0

    def to_global(trace: DaemonTrace, t: Optional[float]) -> Optional[float]:
        wall = to_wall(trace, t)
        if wall is None:
            return None
        return round((wall - origin) / out_scale, MERGE_DECIMALS)

    spans: List[Dict[str, Any]] = []
    events: List[Dict[str, Any]] = []
    for trace, record, kind in staged:
        if kind == "span":
            merged = dict(record)
            merged["id"] = _namespace(trace.name, record.get("id"))
            merged["parent"] = _namespace(trace.name, record.get("parent"))
            merged["start"] = to_global(trace, record.get("start", 0.0))
            merged["end"] = to_global(trace, record.get("end"))
            spans.append(merged)
        else:
            merged = dict(record)
            merged["span"] = _namespace(trace.name, record.get("span"))
            merged["time"] = to_global(trace, record.get("time", 0.0))
            events.append(merged)
    spans.sort(key=lambda r: (r.get("start", 0.0), str(r.get("id"))))
    events.sort(
        key=lambda r: (
            r.get("time", 0.0),
            str(r.get("name")),
            str(r.get("attrs", {}).get("msg")),
        )
    )
    return spans, events


__all__ = [
    "DEFAULT_PAGE_LIMIT",
    "MERGE_DECIMALS",
    "ClockSample",
    "ClockSync",
    "ClockSyncError",
    "DaemonTrace",
    "RemoteTelemetry",
    "merge_traces",
]
