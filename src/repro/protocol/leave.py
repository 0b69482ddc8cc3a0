"""A voluntary-leave protocol (the paper's stated future work).

Section 7: "We plan to use this conceptual foundation to design
protocols for leaving, failure recovery, and neighbor table
optimization."  This module supplies the leave protocol, designed from
the same consistency goal (Definition 3.8) the join protocol serves:

* The leaving node ``x`` knows *exactly* who points at it and where --
  the reverse-neighbor sets ``R_x(i, j)`` that the join protocol
  maintains (tests prove they mirror forward pointers exactly).
* For a reverse neighbor ``v`` holding ``x`` at entry ``(i, j)``, any
  valid replacement is a member of the suffix class
  ``j . v[i-1]...v[0]`` -- which equals ``x``'s rightmost ``i+1``
  digits.  By consistency of ``x``'s *own* table, another class member
  exists iff some entry of ``x`` at a level ``>= i+1`` holds a node
  other than ``x``; those occupants are exactly the candidate set.
* So ``x`` sends each reverse neighbor a LeaveNotifyMsg carrying the
  candidates for its entry.  The reverse neighbor substitutes the
  first live candidate (keeping condition (a): the class is non-empty
  and stays represented) or clears the entry (keeping condition (b):
  ``x`` was the last class member).  When every reverse neighbor has
  acknowledged, ``x`` departs.
* Forward neighbors get a LeaveForgetMsg so their reverse-neighbor
  records stop naming ``x``.

Assumptions (documented, matching the scope the paper's follow-up work
gives itself): the network is quiescent -- no join overlaps the leave,
and concurrent leaves must not be "adjacent" (one leaving node must
not be a replacement candidate for another).  Use
:func:`leave_sequentially` when in doubt; arbitrary concurrent leave
support requires the full dynamics machinery of the authors' later
work and is out of scope for this reproduction.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.ids.digits import NodeId
from repro.network.message import HEADER_BYTES, NODE_REF_BYTES, Message
from repro.protocol.status import NodeStatus


class LeaveNotifyMsg(Message):
    """From a leaving node to one of its reverse neighbors.

    "I am your ``(level, digit)`` primary neighbor and I am leaving;
    replace me with one of ``candidates`` (same suffix class), or
    clear the entry if the list is empty."
    """

    __slots__ = ("level", "digit", "candidates")
    type_name = "LeaveNotifyMsg"

    def __init__(
        self,
        sender: NodeId,
        level: int,
        digit: int,
        candidates: Tuple[NodeId, ...],
    ):
        super().__init__(sender)
        self.level = level
        self.digit = digit
        self.candidates = candidates

    def size_bytes(self) -> int:
        """Wire size: header, position, and the candidate references."""
        return HEADER_BYTES + 2 + NODE_REF_BYTES * len(self.candidates)


class LeaveNotifyRlyMsg(Message):
    """Acknowledges a LeaveNotifyMsg (entry repaired or cleared)."""

    __slots__ = ()
    type_name = "LeaveNotifyRlyMsg"


class LeaveForgetMsg(Message):
    """From a leaving node to each of its forward neighbors: drop the
    sender from your reverse-neighbor records."""

    __slots__ = ()
    type_name = "LeaveForgetMsg"


def replacement_candidates(node, level: int) -> Tuple[NodeId, ...]:
    """Candidates for entries whose class is the leaving node's
    rightmost ``level + 1`` digits: occupants of the leaving node's own
    entries at levels ``>= level + 1`` (excluding itself), in
    deterministic order."""
    seen = []
    for entry in node.table.entries():
        if entry.level >= level + 1 and entry.node != node.node_id:
            if entry.node not in seen:
                seen.append(entry.node)
    return tuple(seen)


class LeaveProtocolMixin:
    """Leave-protocol state and handlers, mixed into ProtocolNode
    (which declares the slots: three scalars, no containers)."""

    __slots__ = ()

    def _init_leave_protocol(self) -> None:
        self.leave_acks_pending = 0
        self.left_at = None
        self.on_departed = None  # set by JoinProtocolNetwork
        # First instance of the class registers for all (class-shared
        # handler table, see NetworkNode._class_handlers).
        if LeaveNotifyMsg not in self._handlers:
            self.handles(LeaveNotifyMsg, self._on_leave_notify)
            self.handles(LeaveNotifyRlyMsg, self._on_leave_notify_rly)
            self.handles(LeaveForgetMsg, self._on_leave_forget)

    # -- leaving node side ----------------------------------------------

    def begin_leave(self) -> None:
        """Start leaving.  Requires status in_system and a quiescent
        join layer (no queued joiners waiting on us)."""
        from repro.protocol.node import ProtocolError

        if self.status is not NodeStatus.IN_SYSTEM:
            raise ProtocolError(
                f"{self.node_id} cannot leave in status {self.status}"
            )
        if self._queues is not None and self._queues.joinwait:
            raise ProtocolError(
                f"{self.node_id} has joiners waiting; cannot leave"
            )
        self._set_status(NodeStatus.LEAVING)
        self.leave_acks_pending = 0
        for level, digit in self.table.reverse_positions():
            candidates = replacement_candidates(self, level)
            for reverse in self.table.reverse_neighbors(level, digit):
                if reverse == self.node_id:
                    continue
                self.send(
                    reverse,
                    LeaveNotifyMsg(self.node_id, level, digit, candidates),
                )
                self.leave_acks_pending += 1
        for neighbor in self.table.distinct_neighbors():
            if neighbor != self.node_id:
                self.send(neighbor, LeaveForgetMsg(self.node_id))
        if self.leave_acks_pending == 0:
            self._depart()

    def _on_leave_notify_rly(self, msg: LeaveNotifyRlyMsg) -> None:
        self.leave_acks_pending -= 1
        if (
            self.leave_acks_pending == 0
            and self.status is NodeStatus.LEAVING
        ):
            self._depart()

    def _depart(self) -> None:
        self._set_status(NodeStatus.LEFT)
        self.left_at = self.now
        if self.on_departed is not None:
            self.on_departed(self.node_id)

    # -- remaining node side ---------------------------------------------

    def _on_leave_notify(self, msg: LeaveNotifyMsg) -> None:
        from repro.routing.entry import NeighborState

        if not self.table.has_position(msg.level, msg.digit):
            return  # malformed: names no cell of ours
        if self._backups is not None:
            self._backups.discard(msg.sender)
        current = self.table.get(msg.level, msg.digit)
        if current == msg.sender:
            replacement = next(
                (c for c in msg.candidates if c != msg.sender),
                None,
            )
            if replacement is not None:
                for extra in msg.candidates:
                    if extra not in (msg.sender, replacement):
                        self.backups.offer(msg.level, msg.digit, extra)
                self.table.replace_entry(
                    msg.level, msg.digit, replacement, NeighborState.S
                )
                # Tell the replacement it gained a reverse neighbor
                # (same bookkeeping rule as the join protocol).
                from repro.protocol.messages import RvNghNotiMsg

                self.send(
                    replacement,
                    RvNghNotiMsg(
                        self.node_id, msg.level, msg.digit, NeighborState.S
                    ),
                )
            else:
                self.table.clear_entry(msg.level, msg.digit)
        self.send(msg.sender, LeaveNotifyRlyMsg(self.node_id))

    def _on_leave_forget(self, msg: LeaveForgetMsg) -> None:
        self.table.remove_reverse_everywhere(msg.sender)
        if self._backups is not None:
            self._backups.discard(msg.sender)


def leave_sequentially(network, leavers: Sequence[NodeId]) -> None:
    """Run each leave to completion before starting the next (the
    safe composition; see module docstring)."""
    for leaver in leavers:
        network.start_leave(leaver, at=network.runtime.now)
        network.run()
        if not network.has_departed(leaver):
            raise RuntimeError(f"leave of {leaver} did not complete")
