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

Wire format: the ``c``/``r`` control frames of :mod:`repro.net.wire`.

=========  =======================================  ==================
op         body                                     response
=========  =======================================  ==================
announce   ``id`` (tagged), ``s`` (is_s_node),      ``ok``, ``peers``
           ``kind`` (optional, default "node")
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
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.ids.digits import NodeId
from repro.net.control import serve_control_datagram
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


class _RendezvousProtocol(asyncio.DatagramProtocol):
    def __init__(self, owner: "RendezvousServer"):
        self.owner = owner

    def datagram_received(self, data: bytes, addr) -> None:
        self.owner._on_datagram(data, (addr[0], addr[1]))


class RendezvousServer:
    """The directory server.  Owns a private event loop; ``serve()``
    blocks until a ``stop`` op arrives (or :meth:`stop` is called from
    another thread, which is how in-process tests drive it)."""

    def __init__(self, listen: Address, ttl: float = DEFAULT_TTL):
        self.listen = listen
        self.ttl = ttl
        self.registrations: Dict[NodeId, _Registration] = {}
        self.requests_served = 0
        self._loop = asyncio.new_event_loop()
        self._endpoint = None

    # -- lifecycle ------------------------------------------------------

    def open(self) -> Address:
        """Bind the socket; returns the bound address."""

        async def _bind():
            return await self._loop.create_datagram_endpoint(
                lambda: _RendezvousProtocol(self), local_addr=self.listen
            )

        endpoint, _ = self._loop.run_until_complete(_bind())
        self._endpoint = endpoint
        sockname = endpoint.get_extra_info("sockname")
        self.listen = (sockname[0], sockname[1])
        return self.listen

    def serve(self) -> None:
        """Serve until stopped."""
        self._loop.run_forever()

    def stop(self) -> None:
        """Stop serving (threadsafe)."""
        self._loop.call_soon_threadsafe(self._loop.stop)

    def close(self) -> None:
        """Close the socket and release the private event loop."""
        if self._endpoint is not None:
            self._endpoint.close()
            self._endpoint = None
        if not self._loop.is_closed():
            # Let the endpoint's close callbacks run before releasing.
            self._loop.call_soon(self._loop.stop)
            self._loop.run_forever()
            self._loop.close()

    # -- request handling ----------------------------------------------

    def _on_datagram(self, data: bytes, addr: Address) -> None:
        reply = serve_control_datagram(data, self.handle, addr)
        if reply is not None and self._endpoint is not None:
            self._endpoint.sendto(reply, addr)

    def handle(
        self, op: str, body: Dict[str, Any], addr: Address
    ) -> Optional[Dict[str, Any]]:
        """Process one control op; returns the response body.  Exposed
        (and directly unit-testable) separately from the socket glue."""
        self.requests_served += 1
        if op == "announce":
            node_id = node_id_from_wire(body["id"])
            # The announcing socket's source address IS the node's
            # listen address (daemons send from their bound socket).
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
            self._loop.call_soon(self._loop.stop)
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


__all__ = ["DEFAULT_TTL", "MAX_PEERS_RETURNED", "RendezvousServer"]
