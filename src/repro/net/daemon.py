"""The node daemon: one protocol node in one OS process.

``repro node --listen HOST:PORT --rendezvous HOST:PORT`` runs a single
:class:`~repro.protocol.node.ProtocolNode` on an
:class:`~repro.runtime.realtime.AsyncioRuntime` over the UDP
:class:`~repro.net.datagram.DatagramTransport` -- the identical state
machine every simulation runs, now with real packets.

Lifecycle:

1. Bind the socket, derive the node ID (``--id``, or a hash of the
   bound address so unconfigured daemons get distinct IDs).
2. Seed daemons (``--seed-node``) start *in_system* with the
   Section 6.1 single-node table.  Everyone else finds a gateway --
   an explicit ``--bootstrap`` peer (asked for its ID with a control
   ``hello``), or an S-node handed out by the rendezvous service --
   and runs the join protocol against it.
3. A heartbeat timer re-announces to the rendezvous (carrying the
   current S-node bit, so only *in_system* nodes are handed out as
   gateways) and keeps the runtime loop alive between messages.
4. The same socket serves the control protocol: ``hello`` / ``status``
   / ``table`` / ``leave`` / ``stop`` / ``clock`` / ``telemetry`` /
   ``metrics``.  ``table`` returns the live neighbor table in wire
   form, which is how the cluster harness runs the Definition 3.8
   checker against a running deployment; ``clock`` + ``telemetry`` are
   how a collector (:mod:`repro.net.collect`) aligns and pulls this
   daemon's trace for the cluster-wide merge.

With ``--telemetry`` the daemon records into a
:class:`~repro.obs.remote.RemoteTelemetry` bundle: the transport
stamps causal ids on every outgoing message (so cross-process message
trees reconstruct), a :class:`~repro.obs.instrument.JoinObserver`
records the same ``join`` / ``phase:*`` span schema the simulator
emits, and wire-level metrics (retransmits, dedup hits, per-peer ack
RTT, unacked depth) accumulate in the bundled registry.
``--telemetry-file PATH`` additionally spools the trace to JSONL on
shutdown, so a crashed collector can still recover the records.

On startup the daemon prints one machine-readable line::

    REPRO-NET READY kind=node id=<id> host=<host> port=<port>

which is what the cluster harness (and any supervisor) waits for.
"""

from __future__ import annotations

import random
import time
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.ids.idspace import IdSpace
from repro.net.control import ready_line
from repro.net.datagram import DatagramTransport
from repro.net.faults import FaultPlan
from repro.net.wire import (
    Address,
    node_id_from_wire,
    node_id_to_wire,
    table_to_wire,
)
from repro.network.stats import MessageStats
from repro.obs.instrument import JoinObserver
from repro.protocol.network_init import single_node_table
from repro.protocol.node import ProtocolNode
from repro.protocol.status import NodeStatus
from repro.runtime.realtime import AsyncioRuntime
from repro.runtime.interface import WallClockBudgetExceeded

if TYPE_CHECKING:
    from repro.obs.remote import RemoteTelemetry

#: Exit codes (the cluster harness keys on these).
EXIT_OK = 0
EXIT_NO_GATEWAY = 3
EXIT_BUDGET = 4

#: Protocol-time interval between rendezvous re-announcements.
HEARTBEAT = 500.0

#: Protocol-time pause between gateway-discovery retries.
DISCOVERY_RETRY_DELAY = 100.0
MAX_DISCOVERY_ATTEMPTS = 20

#: Grace (protocol units) between a stop/depart trigger and socket
#: teardown, so final acks and control responses drain first.
SHUTDOWN_GRACE = 50.0


class NodeDaemonConfig:
    """Everything ``repro node`` parses off its command line."""

    def __init__(
        self,
        listen: Address,
        base: int = 16,
        num_digits: int = 8,
        node_id: Optional[str] = None,
        rendezvous: Optional[Address] = None,
        bootstrap: Optional[Address] = None,
        seed_node: bool = False,
        time_scale: float = 0.001,
        wall_budget: Optional[float] = None,
        loss: float = 0.0,
        duplicate: float = 0.0,
        reorder: float = 0.0,
        fault_seed: int = 0,
        telemetry: bool = False,
        telemetry_file: Optional[str] = None,
    ):
        if not seed_node and rendezvous is None and bootstrap is None:
            raise ValueError(
                "a joining daemon needs --rendezvous or --bootstrap "
                "(or pass --seed-node to start a new network)"
            )
        self.listen = listen
        self.base = base
        self.num_digits = num_digits
        self.node_id = node_id
        self.rendezvous = rendezvous
        self.bootstrap = bootstrap
        self.seed_node = seed_node
        self.time_scale = time_scale
        self.wall_budget = wall_budget
        self.loss = loss
        self.duplicate = duplicate
        self.reorder = reorder
        self.fault_seed = fault_seed
        # --telemetry-file implies --telemetry.
        self.telemetry = bool(telemetry or telemetry_file)
        self.telemetry_file = telemetry_file

    def fault_plan(self) -> Optional[FaultPlan]:
        """The configured fault injection, or ``None`` when clean."""
        if not (self.loss or self.duplicate or self.reorder):
            return None
        return FaultPlan(
            loss=self.loss,
            duplicate=self.duplicate,
            reorder=self.reorder,
            seed=self.fault_seed,
        )


class NodeDaemon:
    """One deployable protocol node."""

    def __init__(self, config: NodeDaemonConfig):
        self.config = config
        self.idspace = IdSpace(config.base, config.num_digits)
        self.runtime = AsyncioRuntime(time_scale=config.time_scale)
        self.telemetry: Optional[RemoteTelemetry] = None
        if config.telemetry:
            # The telemetry bundle (and the exporters behind it) loads
            # only where it is switched on.
            from repro.obs.remote import RemoteTelemetry

            self.telemetry = RemoteTelemetry(
                spool_path=config.telemetry_file
            )
            stats = MessageStats(registry=self.telemetry.metrics)
            self._join_observer: Optional[JoinObserver] = JoinObserver(
                self.telemetry.observability()
            )
        else:
            stats = None
            self._join_observer = None
        self.transport = DatagramTransport(
            self.runtime,
            config.listen,
            stats=stats,
            faults=config.fault_plan(),
            rendezvous=config.rendezvous,
            tracer=(
                self.telemetry.tracer if self.telemetry is not None else None
            ),
            metrics=(
                self.telemetry.metrics if self.telemetry is not None else None
            ),
        )
        self.transport.on_control = self._on_control
        self.node: Optional[ProtocolNode] = None
        self.exit_code = EXIT_OK
        self._stopping = False
        self._departed = False
        self._heartbeat_timer = None
        self._gateway_attempts = 0

    # -- startup --------------------------------------------------------

    def start(self) -> Address:
        """Bind, build the protocol node, and (for joiners) begin
        gateway discovery.  Returns the bound address."""
        config = self.config
        addr = self.transport.open()
        if config.node_id is not None:
            node_id = self.idspace.from_string(config.node_id)
        else:
            node_id = self.idspace.hash_name(f"{addr[0]}:{addr[1]}")
        self.node_id = node_id
        if self.telemetry is not None:
            self.telemetry.node = str(node_id)
        if config.seed_node:
            self.node = ProtocolNode(
                node_id,
                self.transport,
                status=NodeStatus.IN_SYSTEM,
                table=single_node_table(node_id),
            )
        else:
            self.node = ProtocolNode(
                node_id, self.transport, status=NodeStatus.COPYING
            )
        self.node.on_phase = self._on_phase
        self.node.on_departed = self._on_departed
        self._announce()
        self._heartbeat_timer = self.runtime.schedule(
            HEARTBEAT, self._heartbeat
        )
        if not config.seed_node:
            self.runtime.schedule(0.0, self._find_gateway)
        return addr

    def ready_line(self) -> str:
        """The machine-readable startup line supervisors wait for."""
        return ready_line("node", self.transport.local_addr, self.node_id)

    def run(self) -> int:
        """Drive the runtime until shutdown; returns the exit code."""
        try:
            self.runtime.run(wall_budget=self.config.wall_budget)
        except WallClockBudgetExceeded:
            self.exit_code = EXIT_BUDGET
        finally:
            self.transport.close()
            self.runtime.close()
            if self.telemetry is not None:
                # Re-spool after the loop stops: catches records from
                # the final grace period (and budget-exceeded exits,
                # which never pass through _shutdown).
                try:
                    self.telemetry.write_spool()
                except OSError:  # pragma: no cover - disk full / perms
                    pass
        return self.exit_code

    # -- gateway discovery ----------------------------------------------

    def _find_gateway(self) -> None:
        if self._stopping or self.node is None:
            return
        if self.node.status is not NodeStatus.COPYING:
            return  # join already under way
        self._gateway_attempts += 1
        if self._gateway_attempts > MAX_DISCOVERY_ATTEMPTS:
            self.exit_code = EXIT_NO_GATEWAY
            self._shutdown()
            return
        if self.config.bootstrap is not None:
            self.transport.control_request(
                self.config.bootstrap, "hello", None, self._on_hello_reply
            )
        else:
            self.transport.control_request(
                self.config.rendezvous,
                "announce",
                self._announce_body(),
                self._on_peers_reply,
            )

    def _on_hello_reply(self, body: Optional[Dict[str, Any]]) -> None:
        if self._join_started():
            return
        if body and body.get("id") is not None:
            gateway = node_id_from_wire(body["id"])
            self.transport.add_peer(gateway, self.config.bootstrap)
            self._begin_join(gateway)
        else:
            self._retry_discovery()

    def _on_peers_reply(self, body: Optional[Dict[str, Any]]) -> None:
        if self._join_started():
            return
        peers = (body or {}).get("peers") or []
        if not peers:
            self._retry_discovery()
            return
        # Deterministic per-node gateway choice over the offered list.
        rng = random.Random(str(self.node_id))
        id_wire, addr = rng.choice(peers)
        gateway = node_id_from_wire(id_wire)
        self.transport.add_peer(gateway, (addr[0], addr[1]))
        self._begin_join(gateway)

    def _join_started(self) -> bool:
        return (
            self._stopping
            or self.node is None
            or self.node.status is not NodeStatus.COPYING
            or self.node.join_began_at is not None
        )

    def _begin_join(self, gateway) -> None:
        if gateway == self.node_id:
            self._retry_discovery()
            return
        self.node.begin_join(gateway)

    def _retry_discovery(self) -> None:
        if not self._stopping:
            self.runtime.schedule(DISCOVERY_RETRY_DELAY, self._find_gateway)

    # -- heartbeat / rendezvous -----------------------------------------

    def _announce_body(self) -> Dict[str, Any]:
        return {
            "id": node_id_to_wire(self.node_id),
            "s": bool(self.node is not None and self.node.status.is_s_node),
        }

    def _announce(self) -> None:
        if self.config.rendezvous is not None and not self._departed:
            self.transport.control_request(
                self.config.rendezvous, "announce", self._announce_body()
            )

    def _heartbeat(self) -> None:
        self._heartbeat_timer = None
        if self._stopping:
            return
        self._announce()
        self._heartbeat_timer = self.runtime.schedule(
            HEARTBEAT, self._heartbeat
        )

    # -- protocol event hooks -------------------------------------------

    def _on_phase(self, node_id, status, now) -> None:
        if self._join_observer is not None:
            # Same join/phase span schema as the simulator's traces, so
            # the merged cluster trace feeds lifecycle reconstruction
            # and RunReport unchanged.
            self._join_observer.on_phase(node_id, status, now)
        if status is NodeStatus.IN_SYSTEM:
            # Become visible as a gateway the moment we are one.
            self._announce()

    def _on_departed(self, node_id) -> None:
        """The leave protocol completed: deregister and wind down."""
        self._departed = True
        self.node = None
        self.transport.unregister(node_id)
        if self.config.rendezvous is not None:
            self.transport.control_request(
                self.config.rendezvous, "remove",
                {"id": node_id_to_wire(node_id)},
            )
        self._shutdown()

    # -- control protocol -----------------------------------------------

    def _on_control(
        self, op: str, body: Dict[str, Any], addr: Address
    ) -> Optional[Dict[str, Any]]:
        node = self.node
        if op == "hello":
            return {
                "id": node_id_to_wire(self.node_id),
                "s": bool(node is not None and node.status.is_s_node),
            }
        if op == "status":
            return self._status_body()
        if op == "table":
            if node is None:
                return {"error": "departed"}
            return {
                "id": node_id_to_wire(self.node_id),
                "status": node.status.value,
                "table": table_to_wire(node.table),
            }
        if op == "leave":
            if node is None or node.status is not NodeStatus.IN_SYSTEM:
                return {"ok": False, "error": "not in_system"}
            self.runtime.schedule(0.0, node.begin_leave)
            return {"ok": True}
        if op == "stop":
            self.runtime.schedule(SHUTDOWN_GRACE, self._shutdown)
            self._stopping = True
            return {"ok": True}
        if op == "clock":
            # Clock-sync probe: wall + protocol time read back-to-back,
            # so a collector can anchor this daemon's timeline.  Served
            # even without telemetry (it only reads clocks).
            return {
                "wall": time.time(),
                "now": self.runtime.now,
                "time_scale": self.config.time_scale,
            }
        if op == "telemetry":
            if self.telemetry is None:
                return {"error": "telemetry disabled"}
            from repro.obs.remote import DEFAULT_PAGE_LIMIT

            body = body or {}
            page = self.telemetry.export_page(
                spans_from=int(body.get("spans_from", 0)),
                events_from=int(body.get("events_from", 0)),
                limit=int(body.get("limit", DEFAULT_PAGE_LIMIT)),
            )
            page["now"] = self.runtime.now
            page["time_scale"] = self.config.time_scale
            return page
        if op == "metrics":
            if self.telemetry is None:
                return {"error": "telemetry disabled"}
            return {
                "node": self.telemetry.node,
                "metrics": self.telemetry.metrics.snapshot(),
            }
        return {"error": f"unknown op: {op}"}

    def _status_body(self) -> Dict[str, Any]:
        node = self.node
        stats = self.transport.stats
        body: Dict[str, Any] = {
            "id": node_id_to_wire(self.node_id),
            "now": self.runtime.now,
            "events": self.runtime.events_fired,
            "net": dict(self.transport.counters),
            # The protocol's view of the wire (dedups, acks and
            # give-ups are in ``net``): messages sent vs retransmitted,
            # and what still awaits an ack right now.
            "wire": {
                "sent": stats.total_messages,
                "retransmitted": stats.total_retransmitted,
                "unacked": self.transport.unacked_count,
            },
            "peers_known": len(self.transport.peers),
            "telemetry": self.telemetry is not None,
        }
        if node is None:
            body["status"] = "departed"
            body["s"] = False
        else:
            body["status"] = node.status.value
            body["s"] = bool(node.status.is_s_node)
            body["table_filled"] = node.table.filled_count()
            body["theorem3"] = stats.theorem3_count(self.node_id)
            body["join_noti_sent"] = stats.sent_by(
                self.node_id, "JoinNotiMsg"
            )
        return body

    # -- shutdown -------------------------------------------------------

    def _shutdown(self) -> None:
        self._stopping = True
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.cancel()
            self._heartbeat_timer = None
        self.transport.close()
        if self.telemetry is not None:
            try:
                self.telemetry.write_spool()
            except OSError:  # pragma: no cover - disk full / perms
                pass
        self.runtime.kick()


def run_node_daemon(config: NodeDaemonConfig) -> int:
    """Entry point for ``repro node``: start, print the READY line,
    serve until shutdown."""
    daemon = NodeDaemon(config)
    daemon.start()
    print(daemon.ready_line(), flush=True)
    return daemon.run()


__all__ = [
    "EXIT_BUDGET",
    "EXIT_NO_GATEWAY",
    "EXIT_OK",
    "NodeDaemon",
    "NodeDaemonConfig",
    "run_node_daemon",
]
