"""The per-node join-protocol state machine.

This is a faithful, asynchronous translation of the paper's pseudo-code
(Figures 3 and 5-14).  The only structural difference is that the
``copying``-status ``while`` loop of Figure 5, written there as
synchronous table reads, is driven here by explicit CpRstMsg/CpRlyMsg
exchanges -- which is exactly the message exchange the paper says it
omits "for clarity of presentation".

Similarly, the RvNghNotiMsg/RvNghNotiRlyMsg bookkeeping that the paper
omits from its pseudo-code ("when any node x sets N_x(i,j) = y, x needs
to send a RvNghNotiMsg(y, N_x(i,j).state) to y, and y should reply to x
if the state is not consistent with y.status") is implemented in
:meth:`ProtocolNode._fill_entry` / the two RvNgh handlers.

State variable mapping (Figure 3):

=================  =====================================
paper              here
=================  =====================================
``x.status``       ``self.status``
``N_x(i,j)``       ``self.table``
``R_x(i,j)``       ``self.table`` reverse-neighbor sets
``x.noti_level``   ``self.noti_level``
``Q_r``            ``self.q_reply``
``Q_n``            ``self.q_notified``
``Q_j``            ``self.q_joinwait``
``Q_sr``           ``self.q_spe_reply``
``Q_sn``           ``self.q_spe_sent``
=================  =====================================
"""

from __future__ import annotations

from typing import Callable, Optional, Set

from repro.ids.digits import PACKED_DIGIT_BITS, PACKED_DIGIT_MASK, NodeId
from repro.network.node import NetworkNode
from repro.network.transport import Transport
from repro.optimize.mixin import OptimizationMixin
from repro.protocol.leave import LeaveProtocolMixin
from repro.recovery.mixin import RecoveryMixin
from repro.protocol.messages import (
    CpRlyMsg,
    CpRstMsg,
    InSysNotiMsg,
    JoinNotiMsg,
    JoinNotiRlyMsg,
    JoinWaitMsg,
    JoinWaitRlyMsg,
    RvNghDropMsg,
    RvNghNotiMsg,
    RvNghNotiRlyMsg,
    SpeNotiMsg,
    SpeNotiRlyMsg,
    snapshot_entry,
)
from repro.protocol.sizing import (
    SizingPolicy,
    join_noti_payload,
    join_noti_reply_payload,
)
from repro.protocol.status import NodeStatus
from repro.routing.backups import BackupStore
from repro.routing.entry import NeighborState
from repro.routing.table import NeighborTable, TableSnapshot


class ProtocolError(RuntimeError):
    """An execution reached a state the protocol proofs rule out."""


#: Lowest-set-bit -> digit level, for the packed-ID csuf arithmetic in
#: :meth:`ProtocolNode._check_ngh_table`: one int-keyed dict probe
#: replaces ``(lowbit.bit_length() - 1) // w`` per table entry.  Covers
#: IDs up to 32 digits; longer ones (none in practice) fall back to the
#: arithmetic form.
_LOWBIT_K = {
    1 << bit: bit // PACKED_DIGIT_BITS
    for bit in range(32 * PACKED_DIGIT_BITS)
}


class _PackedIdView:
    """A set of packed IDs seen as a set of NodeIds (``add`` and
    ``in``): how :attr:`ProtocolNode.q_notified` presents ``Q_n``."""

    __slots__ = ("packed",)

    def __init__(self, packed: Set[int]) -> None:
        self.packed = packed

    def add(self, node_id: NodeId) -> None:
        self.packed.add(node_id._packed)

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id._packed in self.packed


class _JoinQueues:
    """Figure 3's ``Q_r``, ``Q_n``, ``Q_j``, ``Q_sr`` and ``Q_sn``."""

    __slots__ = ("reply", "notified", "joinwait", "spe_reply", "spe_sent")

    def __init__(self) -> None:
        self.reply: Set[NodeId] = set()
        # Q_n holds packed IDs: _check_ngh_table tests it once per
        # snapshot entry, and an int set answers in C where a NodeId
        # set calls ``NodeId.__hash__`` per probe.
        self.notified: Set[int] = set()
        self.joinwait: Set[NodeId] = set()
        self.spe_reply: Set[NodeId] = set()
        self.spe_sent: Set[NodeId] = set()


class ProtocolNode(
    # OptimizationMixin precedes RecoveryMixin so its _on_measured_pong
    # overrides the recovery mixin's no-op hook.
    LeaveProtocolMixin, OptimizationMixin, RecoveryMixin, NetworkNode
):
    """One node running the hypercube join protocol.

    Nodes of the initial network ``V`` are created with
    ``status=IN_SYSTEM`` and a pre-populated (consistent) table; joining
    nodes are created with ``status=COPYING`` and start the protocol
    via :meth:`begin_join`.

    One flat slotted record per node.  Everything only *some* nodes
    ever need -- the join queues, the backup store, the recovery and
    optimization working state of the mixins -- hangs off a slot that
    stays ``None`` until first use, so a member that never queues a
    joiner, never crashes a neighbor and never optimizes pays eight
    bytes for each possibility and owns no empty container.
    """

    __slots__ = (
        "status", "sizing", "on_phase", "table",
        "noti_level", "join_began_at", "became_s_at",
        "_copy_level", "_copy_prev", "_copy_target",
        "_queues", "_backups",
        # LeaveProtocolMixin
        "leave_acks_pending", "left_at", "on_departed",
        # RecoveryMixin
        "_recovery", "repaired_entries", "cleared_entries",
        # OptimizationMixin
        "_opt", "optimization_switches",
    )

    def __init__(
        self,
        node_id: NodeId,
        transport: Transport,
        status: NodeStatus = NodeStatus.IN_SYSTEM,
        table: Optional[NeighborTable] = None,
        sizing: SizingPolicy = SizingPolicy.FULL,
    ):
        super().__init__(node_id, transport)
        self.status = status
        self.sizing = sizing
        #: Optional observability hook, called as
        #: ``on_phase(node_id, status, now)`` when the join begins and
        #: on every status transition (see repro.obs.JoinObserver).
        self.on_phase: Optional[Callable[[NodeId, NodeStatus, float], None]] = (
            None
        )
        if table is not None:
            if table.owner != node_id:
                raise ValueError("table owner mismatch")
            self.table = table
        else:
            self.table = NeighborTable(node_id)
        self._backups: Optional[BackupStore] = None
        self.noti_level = 0
        self._queues: Optional[_JoinQueues] = None
        # Joining-period bookkeeping (Definition 3.1): t^b and t^e.
        self.join_began_at: Optional[float] = None
        self.became_s_at: Optional[float] = 0.0 if status.is_s_node else None
        # copying-status loop variables (Figure 5's i and p).
        self._copy_level = 0
        self._copy_prev: Optional[NodeId] = None
        self._copy_target: Optional[NodeId] = None

        # Handler registration lands bound-method functions in a
        # class-shared table (see NetworkNode._class_handlers): every
        # instance would re-register the identical functions, so the
        # first instance of the class does it for all (here and in the
        # mixin _init_* helpers below).
        if CpRstMsg not in self._handlers:
            self.handles(CpRstMsg, self._on_cp_rst)
            self.handles(CpRlyMsg, self._on_cp_rly)
            self.handles(JoinWaitMsg, self._on_join_wait)
            self.handles(JoinWaitRlyMsg, self._on_join_wait_rly)
            self.handles(JoinNotiMsg, self._on_join_noti)
            self.handles(JoinNotiRlyMsg, self._on_join_noti_rly)
            self.handles(InSysNotiMsg, self._on_in_sys_noti)
            self.handles(SpeNotiMsg, self._on_spe_noti)
            self.handles(SpeNotiRlyMsg, self._on_spe_noti_rly)
            self.handles(RvNghNotiMsg, self._on_rv_ngh_noti)
            self.handles(RvNghNotiRlyMsg, self._on_rv_ngh_noti_rly)
            self.handles(RvNghDropMsg, self._on_rv_ngh_drop)
        self._init_leave_protocol()
        self._init_recovery()
        self._init_optimization()

    # ------------------------------------------------------------------
    # helpers

    @property
    def is_s_node(self) -> bool:
        return self.status.is_s_node

    @property
    def backups(self) -> BackupStore:
        """Backup neighbors (footnote 6): suffix-qualified nodes seen
        for already-filled entries, kept for fault-tolerant routing."""
        store = self._backups
        if store is None:
            store = self._backups = BackupStore(self.node_id)
        return store

    def _join_queues(self) -> _JoinQueues:
        queues = self._queues
        if queues is None:
            queues = self._queues = _JoinQueues()
        return queues

    q_reply = property(lambda self: self._join_queues().reply)
    q_notified = property(
        lambda self: _PackedIdView(self._join_queues().notified)
    )
    q_joinwait = property(lambda self: self._join_queues().joinwait)
    q_spe_reply = property(lambda self: self._join_queues().spe_reply)
    q_spe_sent = property(lambda self: self._join_queues().spe_sent)

    def _set_status(self, status: NodeStatus) -> None:
        self.status = status
        if self.on_phase is not None:
            self.on_phase(self.node_id, status, self.now)

    def _fill_entry(
        self, level: int, digit: int, node: NodeId, state: NeighborState
    ) -> None:
        """Set ``N_x(level, digit) = node`` and notify the new neighbor
        that we point at it (the paper's RvNghNotiMsg rule).

        Every caller has just observed the entry empty and derived
        ``(level, digit)`` from ``csuf(node, owner)``, so the trusted
        :meth:`~repro.routing.table.NeighborTable.fill_empty` applies.
        """
        self.table.fill_empty(level, digit, node, state)
        if node._packed != self.node_id._packed:
            self.send(node, RvNghNotiMsg(self.node_id, level, digit, state))

    def _csuf(self, other: NodeId) -> int:
        return self.node_id.csuf_len(other)

    # ------------------------------------------------------------------
    # status copying (Figure 5)

    def begin_join(self, gateway: NodeId) -> None:
        """Start joining, given a node ``g0`` of the existing network."""
        if self.status is not NodeStatus.COPYING:
            raise ProtocolError(f"{self.node_id} already joined")
        if gateway == self.node_id:
            raise ProtocolError("a node cannot join via itself")
        self.join_began_at = self.now
        if self.on_phase is not None:
            self.on_phase(self.node_id, self.status, self.now)
        self._copy_level = 0
        self._copy_prev = None
        self._copy_target = gateway
        self.send(gateway, CpRstMsg(self.node_id))

    def _on_cp_rst(self, msg: CpRstMsg) -> None:
        self.send(msg.sender, CpRlyMsg(self.node_id, self.table.snapshot()))

    def _on_cp_rly(self, msg: CpRlyMsg) -> None:
        if self.status is not NodeStatus.COPYING:
            raise ProtocolError("CpRlyMsg outside copying status")
        if msg.sender != self._copy_target:
            raise ProtocolError("CpRlyMsg from unexpected node")
        level = self._copy_level
        own_digit = self.node_id.digit(level)
        # Copy level-`level` neighbors of g into our own table.  The
        # (level, x[level]) position is skipped: Figure 5 overwrites it
        # with x itself right after the loop ("the primary
        # (i, x[i])-neighbor of x is chosen to be x itself"), so copying
        # it would only generate a RvNghNotiMsg for a pointer that never
        # survives.  Its occupant -- the paper's next g -- is read from
        # the snapshot below.  Emptiness is a direct cell read (the
        # loop touches every entry of the sender's table per level).
        table = self.table
        cells = table._cells
        row = level * table.base
        for entry in msg.table:
            if entry[0] != level:
                continue
            digit = entry[1]
            if digit != own_digit and cells[row + digit] is None:
                self._fill_entry(level, digit, entry[2], entry[3])
        p = msg.sender
        cell = snapshot_entry(msg.table, level, own_digit)
        g, s = cell if cell is not None else (None, None)
        self._copy_level = level + 1
        self._copy_prev = p
        if g is not None and s is NeighborState.S:
            # Loop continues: copy the next level from g.
            self._copy_target = g
            self.send(g, CpRstMsg(self.node_id))
            return
        # Loop exits: install self-pointers, go to waiting, send the
        # first JoinWaitMsg.  The (i, x[i]) positions are empty by
        # construction — the copy loop above skips the own digit at
        # every level — so the trusted fill applies.
        for i in range(self.node_id.num_digits):
            self.table.fill_empty(
                i, self.node_id.digit(i), self.node_id, NeighborState.T
            )
        self._set_status(NodeStatus.WAITING)
        target = p if g is None else g
        self.send(target, JoinWaitMsg(self.node_id))
        queues = self._join_queues()
        queues.notified.add(target._packed)
        queues.reply.add(target)

    # ------------------------------------------------------------------
    # JoinWaitMsg / JoinWaitRlyMsg (Figures 6 and 7)

    def _on_join_wait(self, msg: JoinWaitMsg) -> None:
        x = msg.sender
        k = self._csuf(x)
        if self.status is NodeStatus.IN_SYSTEM:
            current = self.table.get(k, x.digit(k))
            if current is not None and current != x:
                self.send(
                    x,
                    JoinWaitRlyMsg(
                        self.node_id, False, current, self.table.snapshot()
                    ),
                )
            else:
                if current is None:
                    self._fill_entry(k, x.digit(k), x, NeighborState.T)
                self.send(
                    x,
                    JoinWaitRlyMsg(
                        self.node_id, True, x, self.table.snapshot()
                    ),
                )
        else:
            # Delay the reply until we become an S-node (Figure 13).
            self.q_joinwait.add(x)

    def _on_join_wait_rly(self, msg: JoinWaitRlyMsg) -> None:
        y = msg.sender
        queues = self._join_queues()
        queues.reply.discard(y)
        k = self._csuf(y)
        if self.table.get(k, y.digit(k)) == y:
            self.table.set_state(k, y.digit(k), NeighborState.S)
        if msg.positive:
            if self.status is not NodeStatus.WAITING:
                raise ProtocolError(
                    f"positive JoinWaitRlyMsg in status {self.status}"
                )
            self._set_status(NodeStatus.NOTIFYING)
            self.noti_level = k
            self.table.add_reverse(k, self.node_id.digit(k), y)
        else:
            u = msg.referral
            self.send(u, JoinWaitMsg(self.node_id))
            queues.notified.add(u._packed)
            queues.reply.add(u)
        self._check_ngh_table(msg.table)
        if (
            self.status is NodeStatus.NOTIFYING
            and not queues.reply
            and not queues.spe_reply
        ):
            self._switch_to_s_node()

    # ------------------------------------------------------------------
    # Check_Ngh_Table (Figure 8)

    def _check_ngh_table(self, snapshot: TableSnapshot) -> None:
        # The hottest protocol loop: every table-carrying message lands
        # here, iterating the sender's whole snapshot.  The whole
        # per-entry decision runs as int arithmetic on the packed ID
        # forms: the XOR of the packed IDs gives csuf directly (lowest
        # set bit / digit width), a shift extracts the digit, and the
        # flat cell index follows -- no NodeId method calls, no tuple
        # keys.  Loop-invariant lookups are bound once; none of them can
        # change inside the loop (status and noti_level only move in
        # message handlers, and q_notified is the same set
        # _send_join_noti mutates).
        notifying = self.status is NodeStatus.NOTIFYING
        noti_level = self.noti_level
        # Q_n (as packed IDs) is consulted while notifying only;
        # members that merely receive a table must not grow queues by
        # being asked.
        q_notified = self._join_queues().notified if notifying else ()
        table = self.table
        own_packed = self.node_id._packed
        base = table.base
        cells = table._cells
        # The backup-offer body is inlined below (it fires for every
        # already-filled entry, the overwhelmingly common case once the
        # network densifies); keep it in lockstep with
        # BackupStore.offer_flat.
        backups = self.backups
        bstore = backups._backups
        bcap = backups.capacity
        w = PACKED_DIGIT_BITS
        mask = PACKED_DIGIT_MASK
        lowbit_k = _LOWBIT_K
        if not notifying:
            # Non-notifying variant: identical body minus the
            # (loop-invariant-guarded) notification step, so the
            # common copying/in-system case pays nothing for it.
            for entry in snapshot:
                u = entry[2]
                up = u._packed
                z = up ^ own_packed
                if z == 0:
                    continue
                if z & mask:
                    # csuf = 0 (lowest digits differ): with random
                    # IDs this is (b-1)/b of all entries.
                    k = 0
                    digit = idx = up & mask
                else:
                    try:
                        k = lowbit_k[z & -z]
                    except KeyError:
                        k = ((z & -z).bit_length() - 1) // w
                    digit = (up >> (k * w)) & mask
                    idx = k * base + digit
                current = cells[idx]
                if current is None:
                    self._fill_entry(k, digit, u, entry[3])
                elif current._packed != up:
                    # Entry taken: keep u as a backup (footnote 6).
                    # try/except: existing buckets dominate, and a
                    # plain subscript beats dict.get on hits.
                    try:
                        bucket = bstore[idx]
                    except KeyError:
                        if bcap >= 1:
                            bstore[idx] = [u]
                    else:
                        if len(bucket) < bcap and u not in bucket:
                            bucket.append(u)
            return
        for entry in snapshot:
            u = entry[2]
            up = u._packed
            z = up ^ own_packed
            if z == 0:
                continue
            if z & mask:
                k = 0
                digit = idx = up & mask
            else:
                try:
                    k = lowbit_k[z & -z]
                except KeyError:
                    k = ((z & -z).bit_length() - 1) // w
                digit = (up >> (k * w)) & mask
                idx = k * base + digit
            current = cells[idx]
            if current is None:
                self._fill_entry(k, digit, u, entry[3])
            elif current._packed != up:
                # Entry taken: keep u as a backup (footnote 6).
                try:
                    bucket = bstore[idx]
                except KeyError:
                    if bcap >= 1:
                        bstore[idx] = [u]
                else:
                    if len(bucket) < bcap and u not in bucket:
                        bucket.append(u)
            if k >= noti_level and up not in q_notified:
                self._send_join_noti(u, k)

    def _send_join_noti(self, target: NodeId, csuf_len: int) -> None:
        snapshot, bitmap, bit_vector_bytes = join_noti_payload(
            self.sizing, self.table, self.noti_level, csuf_len
        )
        self.send(
            target,
            JoinNotiMsg(
                self.node_id,
                snapshot,
                self.noti_level,
                bit_vector_bytes,
                bitmap,
            ),
        )
        queues = self._join_queues()
        queues.notified.add(target._packed)
        queues.reply.add(target)

    # ------------------------------------------------------------------
    # JoinNotiMsg / JoinNotiRlyMsg (Figures 9 and 10)

    def _on_join_noti(self, msg: JoinNotiMsg) -> None:
        x = msg.sender
        k = self._csuf(x)
        digit = x.digit(k)
        current = self.table.get(k, digit)
        if current is None:
            self._fill_entry(k, digit, x, NeighborState.T)
            current = x
        elif current != x:
            self.backups.offer_qualified(k, digit, x)
        conflict = False
        their_entry = snapshot_entry(msg.table, k, self.node_id.digit(k))
        if (
            their_entry is None or their_entry[0] != self.node_id
        ) and self.status is NodeStatus.IN_SYSTEM:
            conflict = True
        positive = current == x
        reply_table = join_noti_reply_payload(
            self.sizing, self.table, msg.noti_level, msg.bitmap
        )
        self.send(
            x, JoinNotiRlyMsg(self.node_id, positive, reply_table, conflict)
        )
        self._check_ngh_table(msg.table)

    def _on_join_noti_rly(self, msg: JoinNotiRlyMsg) -> None:
        if self.status is not NodeStatus.NOTIFYING:
            raise ProtocolError(
                f"JoinNotiRlyMsg in status {self.status}"
            )
        y = msg.sender
        queues = self._join_queues()
        queues.reply.discard(y)
        k = self._csuf(y)
        if msg.positive:
            self.table.add_reverse(k, self.node_id.digit(k), y)
        if (
            msg.conflict
            and k > self.noti_level
            and y not in queues.spe_sent
        ):
            occupant = self.table.get(k, y.digit(k))
            if occupant is not None and occupant != y:
                self.send(
                    occupant, SpeNotiMsg(self.node_id, self.node_id, y)
                )
                queues.spe_sent.add(y)
                queues.spe_reply.add(y)
        self._check_ngh_table(msg.table)
        if not queues.reply and not queues.spe_reply:
            self._switch_to_s_node()

    # ------------------------------------------------------------------
    # SpeNotiMsg / SpeNotiRlyMsg (Figures 11 and 12)

    def _on_spe_noti(self, msg: SpeNotiMsg) -> None:
        y = msg.subject
        k = self._csuf(y)
        if self.table.get(k, y.digit(k)) is None:
            self._fill_entry(k, y.digit(k), y, NeighborState.S)
        current = self.table.get(k, y.digit(k))
        if current != y:
            self.send(current, SpeNotiMsg(self.node_id, msg.origin, y))
        else:
            self.send(
                msg.origin, SpeNotiRlyMsg(self.node_id, msg.origin, y)
            )

    def _on_spe_noti_rly(self, msg: SpeNotiRlyMsg) -> None:
        queues = self._join_queues()
        queues.spe_reply.discard(msg.subject)
        if (
            self.status is NodeStatus.NOTIFYING
            and not queues.reply
            and not queues.spe_reply
        ):
            self._switch_to_s_node()

    # ------------------------------------------------------------------
    # Switch_To_S_Node and InSysNotiMsg (Figures 13 and 14)

    def _switch_to_s_node(self) -> None:
        if self.status is NodeStatus.IN_SYSTEM:
            raise ProtocolError("double switch to S-node")
        self._set_status(NodeStatus.IN_SYSTEM)
        self.became_s_at = self.now
        for i in range(self.node_id.num_digits):
            self.table.set_state(i, self.node_id.digit(i), NeighborState.S)
        for v in self.table.all_reverse_neighbors():
            self.send(v, InSysNotiMsg(self.node_id))
        waiting = self.q_joinwait
        for u in waiting:
            k = self._csuf(u)
            current = self.table.get(k, u.digit(k))
            if current is None or current == u:
                if current is None:
                    self._fill_entry(k, u.digit(k), u, NeighborState.T)
                self.send(
                    u,
                    JoinWaitRlyMsg(
                        self.node_id, True, u, self.table.snapshot()
                    ),
                )
            else:
                self.send(
                    u,
                    JoinWaitRlyMsg(
                        self.node_id, False, current, self.table.snapshot()
                    ),
                )
        waiting.clear()

    def _on_in_sys_noti(self, msg: InSysNotiMsg) -> None:
        x = msg.sender
        xp = x._packed
        s_state = NeighborState.S
        set_state = self.table.set_state
        # Iterate the (immutable) snapshot tuple directly; set_state
        # only invalidates the table's *next* snapshot.  Packed-int
        # equality stands in for NodeId == within one ID space.
        for entry in self.table.snapshot():
            if entry[2]._packed == xp and entry[3] is not s_state:
                set_state(entry[0], entry[1], s_state)

    # ------------------------------------------------------------------
    # RvNghNotiMsg / RvNghNotiRlyMsg (described in Section 4's preamble)
    #
    # Positional messages (these three and LeaveNotifyMsg) carry bare
    # ints off the wire; one naming a cell outside our table is ignored
    # rather than raised into the runtime.

    def _on_rv_ngh_noti(self, msg: RvNghNotiMsg) -> None:
        if not self.table.has_position(msg.level, msg.digit):
            return
        self.table.add_reverse(msg.level, msg.digit, msg.sender)
        actual = (
            NeighborState.S if self.status.is_s_node else NeighborState.T
        )
        if msg.state is not actual:
            self.send(
                msg.sender,
                RvNghNotiRlyMsg(self.node_id, msg.level, msg.digit, actual),
            )

    def _on_rv_ngh_noti_rly(self, msg: RvNghNotiRlyMsg) -> None:
        if (
            self.table.has_position(msg.level, msg.digit)
            and self.table.get(msg.level, msg.digit) == msg.sender
        ):
            self.table.set_state(msg.level, msg.digit, msg.state)

    def _on_rv_ngh_drop(self, msg: RvNghDropMsg) -> None:
        if self.table.has_position(msg.level, msg.digit):
            self.table.remove_reverse(msg.level, msg.digit, msg.sender)
