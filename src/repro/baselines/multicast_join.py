"""A Tapestry/Hildrum-style multicast join (baseline).

The paper contrasts its design with the join protocol of Hildrum,
Kubiatowicz, Rao and Zhao [5], where "the existence of a joining node
is announced by a multicast message.  Each intermediate node in the
multicast tree keeps the joining node in a list (one list per entry
updated by a joining node) until it has received acknowledgments from
all downstream nodes.  This approach has the disadvantage of requiring
many existing nodes to store and process extra states as well as send
and receive messages on behalf of joining nodes."

This module implements that scheme at the same abstraction level as
our join protocol, to quantify the contrast:

1. **Copy phase** -- identical to the paper's copying status: the
   joiner walks gateway tables level by level and copies them.
2. **Acknowledged multicast** -- the last node on the walk (the
   joiner's *surrogate*) multicasts the joiner's arrival over the
   neighbor-pointer forest of the notification set.  A node receiving
   ``(joiner, level j)`` fills its entry for the joiner, forwards to
   every distinct level-``j`` neighbor, and *holds the joiner in a
   pending list* until all downstream acks arrive, then acks upward.

The implementation measures the paper's qualitative claims: messages
per join and -- the key difference -- how many *existing* nodes hold
join state, and for how long.  Correctness (consistency after joins)
holds for sequential joins; under concurrent joins this optimistic
baseline can produce inconsistent tables, which the comparison bench
also surfaces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.ids.digits import NodeId
from repro.ids.idspace import IdSpace
from repro.network.message import HEADER_BYTES, NODE_REF_BYTES, Message
from repro.network.node import NetworkNode
from repro.network.stats import MessageStats
from repro.network.transport import Transport
from repro.routing.entry import NeighborState
from repro.routing.oracle import build_consistent_tables
from repro.routing.table import NeighborTable, TableSnapshot
from repro.runtime import create_runtime
from repro.topology.attachment import ConstantLatencyModel, LatencyModel


class MCopyRstMsg(Message):
    """Requests a copy of the receiver's table (baseline copy phase)."""

    __slots__ = ()
    type_name = "MCopyRstMsg"


class MCopyRlyMsg(Message):
    """Reply carrying the sender's table snapshot."""

    __slots__ = ("table",)
    type_name = "MCopyRlyMsg"
    carries_table = True

    def __init__(self, sender: NodeId, table: TableSnapshot):
        super().__init__(sender)
        self.table = table

    def size_bytes(self) -> int:
        """Wire size: header plus one reference per carried entry."""
        return HEADER_BYTES + NODE_REF_BYTES * len(self.table)


class MAnnounceMsg(Message):
    """Joiner -> surrogate: start the multicast."""

    __slots__ = ("joiner",)
    type_name = "MAnnounceMsg"

    def __init__(self, sender: NodeId, joiner: NodeId):
        super().__init__(sender)
        self.joiner = joiner


class MMulticastMsg(Message):
    """Forwarded down the multicast tree at increasing levels.

    ``ack_level`` identifies the sender's pending record; the receiver
    echoes it in its ack.
    """

    __slots__ = ("joiner", "level", "ack_level")
    type_name = "MMulticastMsg"

    def __init__(
        self, sender: NodeId, joiner: NodeId, level: int, ack_level: int
    ):
        super().__init__(sender)
        self.joiner = joiner
        self.level = level
        self.ack_level = ack_level


class MMulticastAckMsg(Message):
    """``level`` echoes the ``ack_level`` of the message being acked."""

    __slots__ = ("joiner", "level")
    type_name = "MMulticastAckMsg"

    def __init__(self, sender: NodeId, joiner: NodeId, level: int):
        super().__init__(sender)
        self.joiner = joiner
        self.level = level


class MJoinDoneMsg(Message):
    """Surrogate -> joiner: the multicast completed."""

    __slots__ = ("joiner",)
    type_name = "MJoinDoneMsg"

    def __init__(self, sender: NodeId, joiner: NodeId):
        super().__init__(sender)
        self.joiner = joiner


@dataclass
class MulticastJoinStats:
    """Burden metrics for the comparison bench."""

    #: existing nodes that ever held pending join state, per joiner
    state_holders: Dict[NodeId, Set[NodeId]] = field(default_factory=dict)
    #: peak number of simultaneously pending (node, joiner) records
    peak_pending_records: int = 0
    current_pending_records: int = 0
    completed: Set[NodeId] = field(default_factory=set)

    def holder_added(self, node: NodeId, joiner: NodeId) -> None:
        """Record that ``node`` now holds pending state for ``joiner``."""
        self.state_holders.setdefault(joiner, set()).add(node)
        self.current_pending_records += 1
        self.peak_pending_records = max(
            self.peak_pending_records, self.current_pending_records
        )

    def holder_removed(self) -> None:
        """Record that one pending (node, joiner) record drained."""
        self.current_pending_records -= 1

    def holders_for(self, joiner: NodeId) -> int:
        """How many existing nodes ever held state for ``joiner``."""
        return len(self.state_holders.get(joiner, ()))


class _MulticastNode(NetworkNode):
    """One node of the baseline network."""

    def __init__(
        self,
        node_id: NodeId,
        transport: Transport,
        network: "MulticastJoinNetwork",
        table: Optional[NeighborTable] = None,
    ):
        super().__init__(node_id, transport)
        self.network = network
        self.table = table if table is not None else NeighborTable(node_id)
        # Pending multicast state held on behalf of joiners: the paper's
        # criticism is that existing nodes must keep these lists.  Keyed
        # by (joiner, level) because a node can legitimately appear in
        # the multicast tree at several levels.
        # (joiner, level) -> (parent or None for the surrogate,
        #                     ack level to echo upward, acks due)
        self.pending: Dict[
            Tuple[NodeId, int], Tuple[Optional[NodeId], int, int]
        ] = {}
        self.seen_multicasts: Set[Tuple[NodeId, int]] = set()
        # copy-phase state (joiner side)
        self._copy_level = 0
        self._copy_target: Optional[NodeId] = None
        self.joined = False

        self.handles(MCopyRstMsg, self._on_copy_rst)
        self.handles(MCopyRlyMsg, self._on_copy_rly)
        self.handles(MAnnounceMsg, self._on_announce)
        self.handles(MMulticastMsg, self._on_multicast)
        self.handles(MMulticastAckMsg, self._on_multicast_ack)
        self.handles(MJoinDoneMsg, self._on_join_done)

    # -- copy phase ----------------------------------------------------

    def begin_join(self, gateway: NodeId) -> None:
        self._copy_level = 0
        self._copy_target = gateway
        self.send(gateway, MCopyRstMsg(self.node_id))

    def _on_copy_rst(self, msg: MCopyRstMsg) -> None:
        self.send(msg.sender, MCopyRlyMsg(self.node_id, self.table.snapshot()))

    def _on_copy_rly(self, msg: MCopyRlyMsg) -> None:
        level = self._copy_level
        own_digit = self.node_id.digit(level)
        next_hop: Optional[NodeId] = None
        for entry in msg.table:
            if entry.level != level:
                continue
            if entry.digit == own_digit:
                next_hop = entry.node
                continue
            if self.table.is_empty(level, entry.digit):
                self.table.set_entry(
                    level, entry.digit, entry.node, NeighborState.S
                )
        self._copy_level += 1
        if next_hop is not None and next_hop != self.node_id:
            self._copy_target = next_hop
            self.send(next_hop, MCopyRstMsg(self.node_id))
            return
        # Copy walk finished: install self pointers, then ask the
        # surrogate (the last node we copied from) to multicast.
        for i in range(self.node_id.num_digits):
            self.table.set_entry(
                i, self.node_id.digit(i), self.node_id, NeighborState.S
            )
        self.send(msg.sender, MAnnounceMsg(self.node_id, self.node_id))

    # -- acknowledged multicast -----------------------------------------

    def _multicast_children(
        self, joiner: NodeId, level: int
    ) -> Dict[NodeId, int]:
        """Distinct forwarding targets with the level to forward at.

        A node represents its *own* suffix classes (its ``(j, self[j])``
        entries point at itself), so it forwards to neighbors at every
        level ``>= level``, not just at ``level`` -- otherwise branches
        whose class representative is the node itself would be pruned.
        Each target is forwarded at (its lowest entry level) + 1.
        """
        children: Dict[NodeId, int] = {}
        for j in range(level, self.node_id.num_digits):
            for entry in self.table.entries_at_level(j):
                if entry.node in (self.node_id, joiner):
                    continue
                if entry.node not in children:
                    children[entry.node] = j + 1
        return children

    def _start_multicast(
        self,
        joiner: NodeId,
        level: int,
        parent: Optional[NodeId],
        ack_level: int,
    ) -> None:
        """Fill our entry for the joiner, forward, and hold state."""
        k = self.node_id.csuf_len(joiner)
        if self.table.get(k, joiner.digit(k)) is None:
            self.table.set_entry(
                k, joiner.digit(k), joiner, NeighborState.S
            )
        children = (
            self._multicast_children(joiner, level)
            if level < self.node_id.num_digits
            else {}
        )
        if not children:
            if parent is None:
                self._multicast_finished(joiner)
            else:
                self.send(
                    parent, MMulticastAckMsg(self.node_id, joiner, ack_level)
                )
            return
        self.pending[(joiner, level)] = (parent, ack_level, len(children))
        self.network.mstats.holder_added(self.node_id, joiner)
        for child, child_level in children.items():
            self.send(
                child,
                MMulticastMsg(self.node_id, joiner, child_level, level),
            )

    def _on_announce(self, msg: MAnnounceMsg) -> None:
        level = self.node_id.csuf_len(msg.joiner)
        self._start_multicast(msg.joiner, level, parent=None, ack_level=level)

    def _on_multicast(self, msg: MMulticastMsg) -> None:
        key = (msg.joiner, msg.level)
        if key in self.seen_multicasts:
            # Duplicate arrival: ack immediately, hold no extra state.
            self.send(
                msg.sender,
                MMulticastAckMsg(self.node_id, msg.joiner, msg.ack_level),
            )
            return
        self.seen_multicasts.add(key)
        self._start_multicast(
            msg.joiner, msg.level, parent=msg.sender, ack_level=msg.ack_level
        )

    def _on_multicast_ack(self, msg: MMulticastAckMsg) -> None:
        key = (msg.joiner, msg.level)
        state = self.pending.get(key)
        if state is None:
            return
        parent, ack_level, outstanding = state
        outstanding -= 1
        if outstanding > 0:
            self.pending[key] = (parent, ack_level, outstanding)
            return
        del self.pending[key]
        self.network.mstats.holder_removed()
        if parent is None:
            self._multicast_finished(msg.joiner)
        else:
            self.send(
                parent,
                MMulticastAckMsg(self.node_id, msg.joiner, ack_level),
            )

    def _multicast_finished(self, joiner: NodeId) -> None:
        self.send(joiner, MJoinDoneMsg(self.node_id, joiner))

    def _on_join_done(self, msg: MJoinDoneMsg) -> None:
        self.joined = True
        self.network.mstats.completed.add(self.node_id)


class MulticastJoinNetwork:
    """Driver mirroring :class:`repro.protocol.join.JoinProtocolNetwork`
    for the multicast baseline."""

    def __init__(
        self,
        idspace: IdSpace,
        latency_model: Optional[LatencyModel] = None,
        seed: int = 0,
    ):
        self.idspace = idspace
        self.runtime = create_runtime("sim")
        self.stats = MessageStats()
        self.mstats = MulticastJoinStats()
        self.transport = Transport(
            self.runtime,
            latency_model if latency_model is not None else ConstantLatencyModel(),
            self.stats,
        )
        self.nodes: Dict[NodeId, _MulticastNode] = {}
        self.initial_ids: List[NodeId] = []
        self.joiner_ids: List[NodeId] = []
        self._rng = random.Random(seed)

    @classmethod
    def from_oracle(
        cls,
        idspace: IdSpace,
        initial_ids: Sequence[NodeId],
        latency_model: Optional[LatencyModel] = None,
        seed: int = 0,
    ) -> "MulticastJoinNetwork":
        net = cls(idspace, latency_model=latency_model, seed=seed)
        tables = build_consistent_tables(
            initial_ids, random.Random(f"{seed}-oracle")
        )
        for node_id in initial_ids:
            net.nodes[node_id] = _MulticastNode(
                node_id, net.transport, net, tables[node_id]
            )
            net.initial_ids.append(node_id)
        return net

    def start_join(
        self,
        node_id: NodeId,
        gateway: Optional[NodeId] = None,
        at: float = 0.0,
    ) -> None:
        """Create a joining node and schedule its join at ``at``."""
        if gateway is None:
            gateway = self._rng.choice(self.initial_ids)
        node = _MulticastNode(node_id, self.transport, self)
        self.nodes[node_id] = node
        self.joiner_ids.append(node_id)
        self.runtime.schedule_at(at, node.begin_join, gateway)

    def run(self, max_events: Optional[int] = None) -> int:
        """Run to quiescence (or the event cap)."""
        return self.runtime.run(max_events=max_events)

    def tables(self) -> Dict[NodeId, NeighborTable]:
        """Current neighbor tables, keyed by node ID."""
        return {nid: node.table for nid, node in self.nodes.items()}

    def all_joined(self) -> bool:
        """True when every started join received its MJoinDoneMsg."""
        return all(
            self.nodes[j].joined for j in self.joiner_ids
        )

    def check_consistency(self):
        """Definition 3.8 check over the current tables (T states allowed)."""
        from repro.consistency.checker import check_consistency

        return check_consistency(self.tables(), require_s_states=False)
