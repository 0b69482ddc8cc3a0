"""Rendezvous service: the deployment tier's bootstrap directory.

A joining node must know *some* member of the network (the paper's
assumption (ii)); in a real deployment something has to hand out that
first contact.  The rendezvous service is that something -- a tiny UDP
directory in the style of bootcast's control server: nodes announce
``(id, address, s-node?)`` and anyone can ask for live peers or
resolve a specific ID to its address.

It is deliberately *not* part of the protocol: it never sees protocol
messages, holds no neighbor tables, and the network keeps running if
it dies (nodes already introduced to each other talk directly; only
new resolutions stall).  State is soft -- refreshed by node heartbeats
and expired by TTL -- so a restarted rendezvous repopulates itself.

Wire format: the ``c``/``r`` control frames of :mod:`repro.net.wire`,
served by the :class:`~repro.net.control.ControlServer` loop the sweep
worker also runs; this module holds only the op table and its state.

=========  =======================================  ==================
op         body                                     response
=========  =======================================  ==================
announce   ``id`` (tagged), ``s`` (is_s_node),      ``ok``, ``peers``
           ``kind`` (optional, default "node")      (``error`` if the
                                                    id is in use)
peers      --                                       ``peers`` (S only)
resolve    ``id`` (tagged)                          ``addr`` or null
remove     ``id`` (tagged)                          ``ok``
ping       --                                       ``ok``
directory  --                                       ``nodes`` (all live)
stop       --                                       ``ok`` (then exits)
=========  =======================================  ==================

``directory`` differs from ``peers``: it lists *every* live
registration (uncapped) as ``[id, addr, s, kind]`` rows -- the full
roster a telemetry collector, ``repro top`` or a sweep coordinator
iterates -- while ``peers`` is the bootstrap contact list (S-nodes
only, capped).  ``kind`` distinguishes protocol nodes (``"node"``)
from sweep executors (``"worker"``, announced by ``repro worker``);
workers never appear in ``peers``, so a mixed cluster bootstraps
exactly as before.

An ``announce`` of an id that is live at a different address is
refused with ``{"error": "id in use"}`` and the first row stands: a
second daemon on one id would take the first one's replies.  The
refused daemon is handed no peers, so a joiner exhausts discovery and
exits instead of stalling another node's join.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from repro.ids.digits import NodeId
from repro.net.control import ControlClient, ControlServer
from repro.net.wire import Address, node_id_from_wire, node_id_to_wire

#: Announcements older than this (seconds) are expired on read.
DEFAULT_TTL = 60.0

#: Cap on the peer list handed to a joining node.
MAX_PEERS_RETURNED = 16


class _Registration:
    __slots__ = ("addr", "is_s_node", "refreshed_at", "kind")

    def __init__(
        self,
        addr: Address,
        is_s_node: bool,
        refreshed_at: float,
        kind: str = "node",
    ):
        self.addr = addr
        self.is_s_node = is_s_node
        self.refreshed_at = refreshed_at
        self.kind = kind


class RendezvousServer(ControlServer):
    """The directory server: the control server's loop around
    :meth:`handle`, which is unit-testable without a socket."""

    kind = "rendezvous"

    def __init__(self, listen: Address, ttl: float = DEFAULT_TTL):
        super().__init__(listen)
        self.ttl = ttl
        self.registrations: Dict[NodeId, _Registration] = {}

    def handle(
        self, op: str, body: Dict[str, Any], addr: Address
    ) -> Optional[Dict[str, Any]]:
        """Process one control op; returns the response body."""
        if op == "announce":
            node_id = node_id_from_wire(body["id"])
            # The announcing socket's source address IS the node's
            # listen address (daemons send from their bound socket).
            holder = self._live().get(node_id)
            if holder is not None and holder.addr != addr:
                return {"error": "id in use"}
            self.registrations[node_id] = _Registration(
                addr,
                bool(body.get("s")),
                time.monotonic(),
                str(body.get("kind") or "node"),
            )
            return {"ok": True, "peers": self._peer_list(exclude=node_id)}
        if op == "peers":
            return {"peers": self._peer_list()}
        if op == "resolve":
            node_id = node_id_from_wire(body["id"])
            registration = self._live().get(node_id)
            return {
                "addr": list(registration.addr) if registration else None
            }
        if op == "remove":
            self.registrations.pop(node_id_from_wire(body["id"]), None)
            return {"ok": True}
        if op == "ping":
            return {"ok": True, "nodes": len(self._live())}
        if op == "directory":
            return {
                "nodes": [
                    [
                        node_id_to_wire(node_id),
                        list(reg.addr),
                        reg.is_s_node,
                        reg.kind,
                    ]
                    for node_id, reg in sorted(
                        self._live().items(), key=lambda kv: str(kv[0])
                    )
                ]
            }
        if op == "stop":
            self.stop()
            return {"ok": True}
        return {"error": f"unknown op: {op}"}

    def _live(self) -> Dict[NodeId, _Registration]:
        cutoff = time.monotonic() - self.ttl
        stale = [
            node_id
            for node_id, reg in self.registrations.items()
            if reg.refreshed_at < cutoff
        ]
        for node_id in stale:
            del self.registrations[node_id]
        return self.registrations

    def _peer_list(
        self, exclude: Optional[NodeId] = None
    ) -> List[List[Any]]:
        """S-node peers as ``[id_wire, [host, port]]`` rows -- the
        contact list a joining node bootstraps from.  Only protocol
        nodes qualify: sweep workers announce ``s=False`` and
        ``kind="worker"`` and must never be handed out as contacts."""
        rows = []
        for node_id, reg in self._live().items():
            if not reg.is_s_node or reg.kind != "node" or node_id == exclude:
                continue
            rows.append([node_id_to_wire(node_id), list(reg.addr)])
            if len(rows) >= MAX_PEERS_RETURNED:
                break
        return rows


def read_directory(
    client: ControlClient, rendezvous: Address
) -> List[Tuple[Any, Address, str]]:
    """The rendezvous ``directory`` as ``(id_wire, address, kind)``
    rows, in the order served (empty if the rendezvous is silent).  A
    row not shaped ``[id, [host, port], s, kind]`` is malformed input
    and skipped."""
    body = client.try_request(rendezvous, "directory")
    rows = []
    for entry in (body or {}).get("nodes") or []:
        if (
            isinstance(entry, list) and len(entry) == 4
            and isinstance(entry[1], list) and len(entry[1]) == 2
        ):
            rows.append((entry[0], (entry[1][0], entry[1][1]), entry[3]))
    return rows


__all__ = [
    "DEFAULT_TTL",
    "MAX_PEERS_RETURNED",
    "RendezvousServer",
    "read_directory",
]
