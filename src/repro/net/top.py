"""``repro top``: live status of every daemon in a deployed cluster.

Polls the rendezvous ``directory`` for the roster, then each daemon's
``status`` control op, and renders one refreshing table::

    NODE      STATUS     S  TABLE  UNACKED  RETX  DEDUP  TX-B     RX-B     RTT-MS  NOW
    0112      in_system  *  12     0        0     0      20917    18344    0.4     812.0
    2330      waiting       4      2        1     0      1203     2210     0.7     640.5
    77a1      wrk-idle      -      0        0     0      -        -        0.3     15.2

``TX-B`` / ``RX-B`` are the bytes the daemon's transport has handed to
and read off its socket (every frame kind, retransmissions included).

``RTT-MS`` is measured by the poller itself (request round trip), so
the view needs no telemetry enabled on the daemons -- ``status`` is
always served.  Columns that need a live protocol node (status, table
fullness) show ``-`` for departed daemons.  Sweep workers (``repro
worker``, registered with ``kind="worker"``) appear in the same table
with ``wrk-idle`` / ``wrk-busy`` status rows -- they serve the same
``status`` op, just without the protocol-node fields.

The renderer writes plain lines with an ANSI home-and-clear prefix
between refreshes when attached to a TTY, and appends pages when not
(so piping to a file keeps every sample).  ``--iterations`` bounds the
loop (0 = forever), which is also what makes the command testable.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, List, Optional, TextIO, Tuple

from repro.net.collect import TelemetryCollector
from repro.net.control import ControlClient
from repro.net.wire import Address

#: Seconds between refreshes.
DEFAULT_INTERVAL = 1.0

_CLEAR = "\x1b[H\x1b[2J"

_COLUMNS = (
    ("NODE", 10),
    ("STATUS", 10),
    ("S", 2),
    ("TABLE", 6),
    ("UNACKED", 8),
    ("RETX", 5),
    ("DEDUP", 6),
    ("TX-B", 8),
    ("RX-B", 8),
    ("RTT-MS", 7),
    ("NOW", 10),
)


def poll_cluster(
    client: ControlClient, rendezvous: Address
) -> List[Dict[str, Any]]:
    """One sample: the rendezvous roster (cluster daemons *and* sweep
    workers), each daemon's status, and the poller-measured control
    RTT.  Unreachable daemons still get a row (status
    ``unreachable``) -- vanishing silently is the one thing a live
    view must not do."""
    collector = TelemetryCollector(client)
    rows: List[Dict[str, Any]] = []
    for node, addr in collector.discover(rendezvous, workers=True):
        t0 = time.monotonic()
        status = client.try_request(addr, "status")
        rtt_ms = (time.monotonic() - t0) * 1000.0
        row: Dict[str, Any] = {"node": node, "addr": addr}
        if status is None:
            row["status"] = "unreachable"
            rows.append(row)
            continue
        wire = status.get("wire") or {}
        net = status.get("net") or {}
        row.update(
            status=status.get("status", "?"),
            s=bool(status.get("s")),
            table=status.get("table_filled"),
            unacked=wire.get("unacked", 0),
            retransmits=wire.get(
                "retransmitted", net.get("retransmits", 0)
            ),
            deduped=net.get("duplicates_suppressed", 0),
            tx_bytes=net.get("wire_bytes_sent"),
            rx_bytes=net.get("wire_bytes_received"),
            rtt_ms=rtt_ms,
            now=status.get("now", 0.0),
            telemetry=bool(status.get("telemetry")),
        )
        rows.append(row)
    return rows


def render_rows(rows: List[Dict[str, Any]]) -> str:
    """The sample as an aligned text table (one string, no trailing
    newline)."""
    def cell(value: Any, width: int) -> str:
        if value is None:
            text = "-"
        elif isinstance(value, bool):
            text = "*" if value else ""
        elif isinstance(value, float):
            text = f"{value:.1f}"
        else:
            text = str(value)
        return text.ljust(width)

    lines = [
        " ".join(name.ljust(width) for name, width in _COLUMNS).rstrip()
    ]
    for row in rows:
        values = (
            row.get("node"),
            row.get("status"),
            row.get("s"),
            row.get("table"),
            row.get("unacked"),
            row.get("retransmits"),
            row.get("deduped"),
            row.get("tx_bytes"),
            row.get("rx_bytes"),
            row.get("rtt_ms"),
            row.get("now"),
        )
        lines.append(
            " ".join(
                cell(value, width)
                for value, (_, width) in zip(values, _COLUMNS)
            ).rstrip()
        )
    return "\n".join(lines)


def run_top(
    rendezvous: Address,
    interval: float = DEFAULT_INTERVAL,
    iterations: int = 0,
    out: Optional[TextIO] = None,
    client: Optional[ControlClient] = None,
) -> int:
    """The ``repro top`` loop; returns the number of samples taken.

    ``iterations`` == 0 polls until interrupted.  A caller-supplied
    ``client`` (tests) is not closed; an internally created one is.
    """
    stream = out if out is not None else sys.stdout
    own_client = client is None
    control = client if client is not None else ControlClient(
        timeout=0.5, retries=1
    )
    clear = _CLEAR if stream.isatty() else ""
    taken = 0
    try:
        while True:
            rows = poll_cluster(control, rendezvous)
            header = (
                f"repro top -- {len(rows)} node(s) via "
                f"{rendezvous[0]}:{rendezvous[1]}"
            )
            stream.write(
                f"{clear}{header}\n{render_rows(rows)}\n"
            )
            stream.flush()
            taken += 1
            if iterations and taken >= iterations:
                break
            time.sleep(interval)
    except KeyboardInterrupt:
        pass
    finally:
        if own_client:
            control.close()
    return taken


__all__ = [
    "DEFAULT_INTERVAL",
    "poll_cluster",
    "render_rows",
    "run_top",
]
