"""Per-node failure-detection and repair logic.

Mixed into :class:`repro.protocol.node.ProtocolNode`.  A send to a
crashed node is dropped by the transport (and accounted as a drop); the
detection timeout is the failure detector (no pong within the timeout
=> suspected dead -- exact in this simulator, since live nodes always
pong and delivery is reliable).

Suffix-class tests run on packed IDs: a suffix (a repair request's
tuple or one of our own table positions) becomes one ``(key, mask)``
pair (:func:`~repro.ids.packed.suffix_pattern`,
:func:`~repro.ids.packed.entry_pattern`), and "``n`` ends with it" is
``n._packed & mask == key`` -- no tuple slices per candidate.  Node
identity tests (who to skip, who was seen) compare packed IDs too:
ints hash and compare in C, NodeIds through Python methods.

A node answers each repair suffix once per view of its table: the memo
of answers is valid while ``(table.version, len(known_live))`` holds,
which is exact as every table mutator bumps ``version`` and
``known_live`` only grows.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Optional, Set, Tuple

from repro.ids.digits import NodeId
from repro.ids.packed import entry_pattern, suffix_pattern
from repro.runtime.interface import TimerHandle
from repro.recovery.messages import (
    AdvertiseMsg,
    PingMsg,
    PongMsg,
    RepairFindMsg,
    RepairFindRlyMsg,
    Suffix,
)

Position = Tuple[int, int]

#: Ping token values: liveness sweep vs repair-candidate verification.
DETECT, VERIFY = 0, 1

_by_digits = attrgetter("_digits")


class _RecoveryState:
    """One node's working state for a detection/repair sweep."""

    __slots__ = (
        "ping_outstanding", "detection_done", "detection_timer",
        "suspected", "repair_pending", "repair_seen", "known_live",
        "answers", "answers_stamp",
    )

    def __init__(self) -> None:
        self.ping_outstanding: Set[NodeId] = set()
        self.detection_done = True
        self.detection_timer: Optional[TimerHandle] = None
        self.suspected: Dict[Position, NodeId] = {}
        self.repair_pending: Set[Position] = set()
        # (packed origin, suffix) of every forwarded search seen.
        self.repair_seen: Set[Tuple[int, Suffix]] = set()
        self.known_live: Set[NodeId] = set()
        # suffix -> (own ID matches, sorted matching others)
        self.answers: Dict[Suffix, Tuple[bool, Tuple[NodeId, ...]]] = {}
        self.answers_stamp: Optional[Tuple[int, int]] = None


class RecoveryMixin:
    """Failure detection and entry repair, one node's share.

    The working state is a :class:`_RecoveryState` created by the
    first call or message that needs one; a node no sweep ever reaches
    keeps ``_recovery`` at ``None`` (answering a ping needs no state).
    """

    __slots__ = ()

    def _init_recovery(self) -> None:
        self._recovery: Optional[_RecoveryState] = None
        self.repaired_entries = 0
        self.cleared_entries = 0
        # First instance of the class registers for all (class-shared
        # handler table, see NetworkNode._class_handlers).
        if PingMsg not in self._handlers:
            self.handles(PingMsg, self._on_ping)
            self.handles(PongMsg, self._on_pong)
            self.handles(AdvertiseMsg, self._on_advertise)
            self.handles(RepairFindMsg, self._on_repair_find)
            self.handles(RepairFindRlyMsg, self._on_repair_find_rly)

    def _recovery_state(self) -> _RecoveryState:
        state = self._recovery
        if state is None:
            state = self._recovery = _RecoveryState()
        return state

    # -- detection ------------------------------------------------------

    def begin_failure_detection(self, timeout: float) -> None:
        """Ping every distinct forward and reverse neighbor; whoever
        has not answered when ``timeout`` expires is declared dead and
        purged from reverse-neighbor records; its table entries become
        *suspected* and await repair.

        The timeout is an armed runtime timer; a sweep still in flight
        can be called off with :meth:`cancel_failure_detection`."""
        state = self._recovery_state()
        state.detection_done = False
        state.repair_seen = set()
        targets = self.table.new_neighbor_set()
        targets |= self.table.all_reverse_neighbors()
        targets.discard(self.node_id)
        state.ping_outstanding = set()
        for target in targets:
            probe = PingMsg(self.node_id, self.now, token=DETECT)
            state.ping_outstanding.add(target)
            self.transport.send(target, probe)
        state.detection_timer = self.start_timer(
            timeout, self._on_detection_timeout
        )

    def cancel_failure_detection(self) -> bool:
        """Call off an in-flight detection sweep (cancel-before-fire).

        The armed timeout timer is cancelled and outstanding pings are
        forgotten, so no node gets suspected by the aborted sweep.
        Returns True iff a sweep was actually cancelled; after the
        timeout has fired this is a no-op returning False.
        """
        state = self._recovery_state()
        if state.detection_timer is None or state.detection_done:
            return False
        state.detection_timer.cancel()
        state.detection_timer = None
        state.ping_outstanding = set()
        state.detection_done = True
        return True

    def _on_detection_timeout(self) -> None:
        state = self._recovery_state()
        state.detection_timer = None
        for dead in state.ping_outstanding:
            for position in self.table.positions_of(dead):
                state.suspected[position] = dead
            self.table.remove_reverse_everywhere(dead)
            if self._backups is not None:
                self._backups.discard(dead)
        state.ping_outstanding = set()
        state.detection_done = True

    @property
    def suspected_positions(self) -> Set[Position]:
        return set(self._recovery_state().suspected)

    # -- advertising ------------------------------------------------------

    def begin_advertise(self) -> None:
        """Push our existence to every (believed-live) forward
        neighbor; see :class:`~repro.recovery.messages.AdvertiseMsg`."""
        suspected = self._recovery_state().suspected
        skip = {dead._packed for dead in suspected.values()}
        skip.add(self.node_id._packed)
        for neighbor in self.table.distinct_neighbors():
            if neighbor._packed in skip:
                continue
            self.transport.send(
                neighbor, AdvertiseMsg(self.node_id)
            )

    def _on_advertise(self, msg: AdvertiseMsg) -> None:
        from repro.protocol.messages import RvNghNotiMsg
        from repro.routing.entry import NeighborState

        state = self._recovery_state()
        state.known_live.add(msg.sender)
        # The advertiser just proved liveness: repair any suspected
        # entry it fits directly.
        packed = msg.sender._packed
        for position in list(state.suspected):
            level, digit = position
            key, mask = entry_pattern(self.node_id, level, digit)
            if packed & mask != key:
                continue
            self.table.replace_entry(
                level, digit, msg.sender, NeighborState.S
            )
            self.send(
                msg.sender,
                RvNghNotiMsg(self.node_id, level, digit, NeighborState.S),
            )
            del state.suspected[position]
            state.repair_pending.discard(position)
            self.repaired_entries += 1

    # -- repair ---------------------------------------------------------

    def begin_repair(self, ttl: int = 0) -> None:
        """For each suspected entry, ask live neighbors for candidates
        with the entry's required suffix.  ``ttl > 0`` lets queried
        nodes that know no candidate forward the question onward
        (escalation for heavy failure fractions)."""
        state = self._recovery_state()
        if not state.suspected:
            return
        state.repair_pending = set(state.suspected)
        skip = {dead._packed for dead in state.suspected.values()}
        skip.add(self.node_id._packed)
        live_neighbors = {
            neighbor
            for neighbor in self.table.distinct_neighbors()
            if neighbor._packed not in skip
        }
        for position in state.repair_pending:
            # Own backups first (footnote 6): verify them by ping and
            # install on the pong, skipping the network search.
            backups = (
                self._backups.get(*position)
                if self._backups is not None
                else ()
            )
            for backup in backups:
                self.transport.send(
                    backup, PingMsg(self.node_id, self.now, token=VERIFY)
                )
            suffix = self.node_id.suffix(position[0]) + (position[1],)
            for neighbor in live_neighbors:
                self.transport.send(
                    neighbor,
                    RepairFindMsg(self.node_id, self.node_id, suffix, ttl),
                )

    def _on_repair_find(self, msg: RepairFindMsg) -> None:
        suffix = msg.suffix
        me = self.node_id
        state = self._recovery or self._recovery_state()
        stamp = (self.table._version, len(state.known_live))
        if stamp != state.answers_stamp:
            state.answers, state.answers_stamp = {}, stamp
        answer = state.answers.get(suffix)
        if answer is None:
            key, mask = suffix_pattern(suffix, me._base, len(me._digits))
            known = self.table.distinct_neighbors() | state.known_live
            # Filter, then sort the few matches (same order as filtering
            # the sorted set: the digit tuples are distinct).
            own = me._packed
            matches = [
                n for n in known
                if n._packed & mask == key and n._packed != own
            ]
            answer = state.answers[suffix] = (
                me._packed & mask == key,
                tuple(sorted(matches, key=_by_digits)),
            )
        origin = msg.origin
        origin_packed = origin._packed
        candidates = [me] if answer[0] else []
        if answer[1]:
            candidates += [
                n for n in answer[1] if n._packed != origin_packed
            ]
        if candidates:
            self.transport.send(
                msg.origin,
                RepairFindRlyMsg(self.node_id, suffix, tuple(candidates)),
            )
        # Forward even when candidates were found: they are unverified
        # (possibly dead themselves), so the search must not stop at
        # the first node that merely *names* class members.
        if msg.ttl > 0:
            key = (origin_packed, suffix)
            if key in state.repair_seen:
                return
            state.repair_seen.add(key)
            skip = (me._packed, origin_packed, msg.sender._packed)
            for neighbor in self.table.distinct_neighbors():
                if neighbor._packed in skip:
                    continue
                self.transport.send(
                    neighbor,
                    RepairFindMsg(
                        self.node_id, msg.origin, suffix, msg.ttl - 1
                    ),
                )

    def _on_repair_find_rly(self, msg: RepairFindRlyMsg) -> None:
        # Verify each candidate by pinging it; installation happens on
        # the pong (the candidate may itself be dead).
        me = self.node_id._packed
        for candidate in msg.candidates:
            if candidate._packed == me:
                continue
            self.transport.send(
                candidate, PingMsg(self.node_id, self.now, token=VERIFY)
            )

    def _install_repair(self, candidate: NodeId) -> None:
        from repro.protocol.messages import RvNghNotiMsg
        from repro.routing.entry import NeighborState

        state = self._recovery_state()
        packed = candidate._packed
        for position in list(state.repair_pending):
            level, digit = position
            key, mask = entry_pattern(self.node_id, level, digit)
            if packed & mask != key:
                continue
            self.table.replace_entry(
                level, digit, candidate, NeighborState.S
            )
            self.send(
                candidate,
                RvNghNotiMsg(self.node_id, level, digit, NeighborState.S),
            )
            state.repair_pending.discard(position)
            state.suspected.pop(position, None)
            self.repaired_entries += 1

    def finalize_repairs(self) -> int:
        """Clear entries whose class could not be repopulated (the
        class is presumed extinct).  Returns how many were cleared."""
        cleared = 0
        state = self._recovery_state()
        for position in list(state.suspected):
            self.table.clear_entry(position[0], position[1])
            del state.suspected[position]
            state.repair_pending.discard(position)
            cleared += 1
        self.cleared_entries += cleared
        return cleared

    # -- ping plumbing ----------------------------------------------------

    def _on_ping(self, msg: PingMsg) -> None:
        self.send(
            msg.sender, PongMsg(self.node_id, msg.sent_at, msg.token)
        )

    def _on_pong(self, msg: PongMsg) -> None:
        if msg.token == DETECT:
            state = self._recovery or self._recovery_state()
            state.ping_outstanding.discard(msg.sender)
        elif msg.token == VERIFY:
            self._install_repair(msg.sender)
        else:
            self._on_measured_pong(msg)

    def _on_measured_pong(self, msg: PongMsg) -> None:
        """Hook for other subsystems (locality optimization) that use
        tokened pings for RTT measurement."""
        return None
