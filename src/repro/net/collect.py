"""Telemetry collector: pull every daemon's trace, merge into one.

The simulator hands the analysis tier one tracer.  A deployed cluster
has one per process, each timestamped in its own local protocol time.
:class:`TelemetryCollector` closes the gap from the *outside* -- it
needs nothing but the control protocol:

1. **Discover** the daemons: either an explicit address list, or the
   rendezvous ``directory`` op (every live registration, not just
   S-nodes).
2. **Align clocks**: sample each daemon's ``clock`` op a few times,
   keep the minimum-RTT sample (:class:`~repro.obs.remote.ClockSync`),
   and anchor the daemon's protocol timeline at that sample's
   midpoint on the collector's clock.
3. **Pull**: page through each daemon's ``telemetry`` op until
   ``done``.
4. **Merge**: :func:`~repro.obs.remote.merge_traces` rewrites span ids
   to ``"<node>:<id>"`` and re-expresses every timestamp on one global
   protocol-time axis -- message ids need no rewriting because the
   datagram transport stamps cluster-unique strings that both ends of
   a datagram record verbatim.

The merged ``(spans, events)`` stream is byte-compatible with
:func:`~repro.obs.export.read_trace_jsonl` output, so
:class:`~repro.obs.causality.CausalForest`,
:mod:`~repro.obs.lifecycle` and :class:`~repro.obs.report.RunReport`
consume a live 5-process cluster exactly as they consume a simulator
run.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.net.control import ControlClient
from repro.net.rendezvous import read_directory
from repro.net.wire import Address, node_id_from_wire
from repro.obs.export import write_trace_records
from repro.obs.remote import (
    ClockSample,
    ClockSync,
    DaemonTrace,
    merge_traces,
)

#: Clock-op round trips per daemon; the min-RTT one wins.
CLOCK_SAMPLES = 5

#: Safety cap on telemetry pages pulled from one daemon.
MAX_PAGES = 4096


class CollectError(RuntimeError):
    """A daemon could not be sampled or paged."""


class TelemetryCollector:
    """Pulls and merges telemetry from live daemons over control UDP.

    ``client`` is an open :class:`~repro.net.control.ControlClient`;
    the collector never owns it (callers reuse one client across
    status polls, table pulls and telemetry collection).
    """

    def __init__(self, client: ControlClient):
        self.client = client

    # -- discovery ------------------------------------------------------

    def discover(
        self, rendezvous: Address, workers: bool = False
    ) -> List[Tuple[str, Address]]:
        """All live daemons known to the rendezvous, as
        ``(node_id_string, address)`` rows (sorted by id).

        Directory rows registered with ``kind="worker"`` (sweep
        executors, which serve no ``clock``/``telemetry`` ops) are
        skipped unless ``workers=True``.
        """
        rows = [
            (str(node_id_from_wire(id_wire)), addr)
            for id_wire, addr, kind in read_directory(self.client, rendezvous)
            if workers or kind != "worker"
        ]
        rows.sort(key=lambda row: row[0])
        return rows

    # -- clock alignment ------------------------------------------------

    def sample_clock(self, addr: Address) -> Tuple[ClockSync, Dict[str, Any]]:
        """RTT-sample ``addr``'s ``clock`` op; returns the chosen sync
        plus the *best* (min-RTT) response body, whose ``now`` /
        ``time_scale`` anchor the daemon's protocol timeline."""
        samples: List[ClockSample] = []
        bodies: List[Dict[str, Any]] = []
        for _ in range(CLOCK_SAMPLES):
            # Wall clock on both ends: the daemon's ``clock`` op
            # reports ``time.time()``, so sampling against the same
            # clock family makes the offset a true daemon-vs-collector
            # skew (near zero on one machine) instead of an
            # epoch-vs-monotonic artifact.
            t0 = time.time()
            body = self.client.try_request(addr, "clock")
            t1 = time.time()
            if body is None or "wall" not in body:
                continue
            samples.append(ClockSample(t0, float(body["wall"]), t1))
            bodies.append(body)
        if not samples:
            raise CollectError(f"no clock response from {addr}")
        sync = ClockSync(samples)
        return sync, bodies[samples.index(sync.best)]

    # -- pull -----------------------------------------------------------

    def pull(self, addr: Address) -> Optional[DaemonTrace]:
        """One daemon's full trace as a time-anchored
        :class:`~repro.obs.remote.DaemonTrace`; ``None`` if the daemon
        is unreachable or runs without telemetry."""
        try:
            sync, anchor = self.sample_clock(addr)
        except CollectError:
            return None
        spans: List[Dict[str, Any]] = []
        events: List[Dict[str, Any]] = []
        node = "?"
        cursor = (0, 0)
        for _ in range(MAX_PAGES):
            page = self.client.try_request(
                addr,
                "telemetry",
                {"spans_from": cursor[0], "events_from": cursor[1]},
            )
            if page is None or "error" in page:
                return None
            node = page.get("node", node)
            spans.extend(page.get("spans") or [])
            events.extend(page.get("events") or [])
            if page.get("done", True):
                break
            cursor = tuple(page["next"])
        return DaemonTrace(
            name=str(node),
            spans=spans,
            events=events,
            anchor_now=float(anchor.get("now", 0.0)),
            anchor_collector_wall=sync.best.midpoint,
            time_scale=float(anchor.get("time_scale", 1.0)),
            clock_offset=sync.offset,
            clock_rtt=sync.rtt,
        )

    # -- merge ----------------------------------------------------------

    def collect(
        self, addrs: Sequence[Address]
    ) -> Tuple[List[DaemonTrace], List[Dict[str, Any]], List[Dict[str, Any]]]:
        """Pull every reachable daemon in ``addrs`` and merge.

        Returns ``(daemon_traces, merged_spans, merged_events)``;
        unreachable / telemetry-less daemons are skipped (their
        absence shows in the returned trace list, which callers can
        compare against the roster they expected).
        """
        traces = [trace for trace in map(self.pull, addrs) if trace]
        spans, events = merge_traces(traces)
        return traces, spans, events

    def collect_to_file(
        self, addrs: Sequence[Address], path: str
    ) -> Tuple[List[DaemonTrace], int]:
        """Merge ``addrs``' telemetry into a JSONL trace at ``path``
        (readable by ``repro report``).  Returns the per-daemon traces
        and the record count written."""
        traces, spans, events = self.collect(addrs)
        return traces, write_trace_records(spans, events, path)


def clock_table(traces: Sequence[DaemonTrace]) -> List[Dict[str, Any]]:
    """Per-daemon clock diagnostics for embedding in reports."""
    return [
        {
            "node": trace.name,
            "offset_ms": round(trace.clock_offset * 1000.0, 3),
            "rtt_ms": round(trace.clock_rtt * 1000.0, 3),
            "spans": len(trace.spans),
            "events": len(trace.events),
        }
        for trace in traces
    ]


__all__ = [
    "CLOCK_SAMPLES",
    "MAX_PAGES",
    "CollectError",
    "TelemetryCollector",
    "clock_table",
]
